// Benchmarks regenerating the paper's evaluation (one per figure, plus
// the DESIGN.md ablations) and micro-benchmarks of every substrate
// layer. Run:
//
//	go test -bench=. -benchmem .
//
// Absolute numbers are for a simulated LAN on current hardware; the
// reproduction targets are the *shapes*: replacement-layer overhead of a
// few percent, a short latency spike around a replacement, Maestro's
// application blocking, and linear reissue cost.
package repro_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/dpu"
	"repro/internal/abcast"
	"repro/internal/consensus"
	"repro/internal/experiments"
	"repro/internal/fd"
	"repro/internal/kernel"
	"repro/internal/rbcast"
	"repro/internal/rp2p"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/udp"
	"repro/internal/wire"
	"repro/internal/workload"
)

// BenchmarkFigure5LatencyTimeline runs the paper's Figure 5 experiment
// (constant load, one CT->CT replacement mid-run) once per iteration
// and reports the measured shape as custom metrics.
func BenchmarkFigure5LatencyTimeline(b *testing.B) {
	var baseline, during, window float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure5(experiments.Figure5Config{
			N: 3, RatePerStack: 100, PayloadSize: 1024,
			Duration: 1200 * time.Millisecond, SwitchAt: 600 * time.Millisecond,
			Seed: int64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		baseline += float64(res.BaselineAvg) / float64(time.Millisecond)
		during += float64(res.DuringAvg) / float64(time.Millisecond)
		window += float64(res.SwitchDone-res.SwitchStart) / float64(time.Millisecond)
	}
	b.ReportMetric(baseline/float64(b.N), "baseline-ms")
	b.ReportMetric(during/float64(b.N), "during-ms")
	b.ReportMetric(window/float64(b.N), "switch-window-ms")
}

// BenchmarkFigure6LoadSweep measures one (n, load) point of Figure 6
// per sub-benchmark, for each of the three curves.
func BenchmarkFigure6LoadSweep(b *testing.B) {
	for _, n := range []int{3, 7} {
		for _, variant := range []experiments.Manager{
			experiments.ManagerNone, experiments.ManagerRepl,
		} {
			b.Run(fmt.Sprintf("n%d/%s", n, variant), func(b *testing.B) {
				var total float64
				for i := 0; i < b.N; i++ {
					cl, err := experiments.BuildCluster(experiments.ClusterConfig{
						N: n, Manager: variant, Net: experiments.LANProfile(int64(i) + 1),
					})
					if err != nil {
						b.Fatal(err)
					}
					gen := workload.NewGenerator(n,
						workload.Config{RatePerStack: 150 / float64(n), PayloadSize: 1024},
						cl.Recorder, cl.Broadcast)
					gen.Start()
					time.Sleep(800 * time.Millisecond)
					gen.Stop()
					cl.WaitQuiesce(10 * time.Second)
					results := cl.Recorder.Results()
					var sum time.Duration
					for _, r := range results {
						sum += r.Avg
					}
					if len(results) > 0 {
						total += float64(sum/time.Duration(len(results))) / float64(time.Millisecond)
					}
					cl.Close()
				}
				b.ReportMetric(total/float64(b.N), "avg-latency-ms")
			})
		}
	}
}

// BenchmarkSwitchManagers is Ablation A: one switch under load per
// iteration for each replacement manager, reporting the disruption.
func BenchmarkSwitchManagers(b *testing.B) {
	for _, mgr := range []experiments.Manager{
		experiments.ManagerRepl, experiments.ManagerGraceful, experiments.ManagerMaestro,
	} {
		b.Run(string(mgr), func(b *testing.B) {
			var switchMS, duringMS float64
			for i := 0; i < b.N; i++ {
				cl, err := experiments.BuildCluster(experiments.ClusterConfig{
					N: 3, Manager: mgr, Net: experiments.LANProfile(int64(i) + 7),
				})
				if err != nil {
					b.Fatal(err)
				}
				gen := workload.NewGenerator(3,
					workload.Config{RatePerStack: 60, PayloadSize: 512},
					cl.Recorder, cl.Broadcast)
				gen.Start()
				time.Sleep(200 * time.Millisecond)
				trigger := cl.ChangeProtocol(0, abcast.ProtocolCT)
				doneAt, ok := cl.WaitSwitched(0, 20*time.Second)
				if !ok {
					b.Fatal("switch stalled")
				}
				time.Sleep(150 * time.Millisecond)
				gen.Stop()
				cl.WaitQuiesce(10 * time.Second)
				var lats []time.Duration
				for _, r := range cl.Recorder.Results() {
					if !r.SentAt.Before(trigger) && r.SentAt.Before(doneAt) {
						lats = append(lats, r.Avg)
					}
				}
				var sum time.Duration
				for _, l := range lats {
					sum += l
				}
				if len(lats) > 0 {
					duringMS += float64(sum/time.Duration(len(lats))) / float64(time.Millisecond)
				}
				switchMS += float64(doneAt.Sub(trigger)) / float64(time.Millisecond)
				cl.Close()
			}
			b.ReportMetric(switchMS/float64(b.N), "switch-ms")
			b.ReportMetric(duringMS/float64(b.N), "during-lat-ms")
		})
	}
}

// BenchmarkSwitchReissue is Ablation B: switch duration as a function
// of the undelivered backlog reissued through the new protocol.
func BenchmarkSwitchReissue(b *testing.B) {
	for _, backlog := range []int{0, 100, 400} {
		b.Run(fmt.Sprintf("backlog%d", backlog), func(b *testing.B) {
			var switchMS float64
			for i := 0; i < b.N; i++ {
				rs, err := experiments.RunReissueScaling([]int{backlog}, int64(i)+13)
				if err != nil {
					b.Fatal(err)
				}
				switchMS += float64(rs[0].SwitchDuration) / float64(time.Millisecond)
			}
			b.ReportMetric(switchMS/float64(b.N), "switch-ms")
		})
	}
}

// BenchmarkSwitchMatrix is Ablation C: one cross-protocol switch per
// iteration for each ordered protocol pair.
func BenchmarkSwitchMatrix(b *testing.B) {
	pairs := [][2]string{
		{abcast.ProtocolCT, abcast.ProtocolSeq},
		{abcast.ProtocolSeq, abcast.ProtocolToken},
		{abcast.ProtocolToken, abcast.ProtocolCT},
	}
	for _, pair := range pairs {
		b.Run(fmt.Sprintf("%s_to_%s", pair[0][7:], pair[1][7:]), func(b *testing.B) {
			var switchMS float64
			for i := 0; i < b.N; i++ {
				c, err := dpu.New(3, dpu.WithSeed(int64(i)+17), dpu.WithInitialProtocol(pair[0]))
				if err != nil {
					b.Fatal(err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				start := time.Now()
				if _, err := c.ChangeProtocolAll(ctx, pair[1]); err != nil {
					b.Fatalf("switch stalled: %v", err)
				}
				switchMS += float64(time.Since(start)) / float64(time.Millisecond)
				cancel()
				c.Close()
			}
			b.ReportMetric(switchMS/float64(b.N), "switch-ms")
		})
	}
}

// --- Micro-benchmarks per substrate layer ---

// BenchmarkWireEncodeDecode measures the codec used by every header.
func BenchmarkWireEncodeDecode(b *testing.B) {
	payload := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := wire.NewWriter(len(payload) + 32)
		w.Byte(1).Uvarint(uint64(i)).Uvarint(42).String("abcast/ct").Raw(payload)
		r := wire.NewReader(w.Bytes())
		r.Byte()
		r.Uvarint()
		r.Uvarint()
		_ = r.String()
		r.Rest()
		if r.Err() != nil {
			b.Fatal(r.Err())
		}
	}
}

// BenchmarkKernelDispatch measures one service call through the
// executor and binding table.
func BenchmarkKernelDispatch(b *testing.B) {
	st := kernel.NewStack(kernel.Config{Addr: 0, Peers: []kernel.Addr{0}})
	defer st.Close()
	var handled atomic.Int64
	st.DoSync(func() {
		m := &countingModule{Base: kernel.NewBase(st, "bench"), count: &handled}
		st.AddModule(m)
		st.Bind("svc", m)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Call("svc", i)
	}
	st.DoSync(func() {})
	if handled.Load() != int64(b.N) {
		b.Fatalf("handled %d of %d", handled.Load(), b.N)
	}
}

type countingModule struct {
	kernel.Base
	count *atomic.Int64
}

func (m *countingModule) HandleRequest(kernel.ServiceID, kernel.Request) { m.count.Add(1) }

// benchGroup assembles n stacks with the full substrate for transport
// and protocol micro-benches.
type benchGroup struct {
	net    *simnet.Network
	stacks []*kernel.Stack
}

func newBenchGroup(b *testing.B, n int, protocols ...string) *benchGroup {
	b.Helper()
	g := &benchGroup{net: simnet.New(simnet.Config{
		BaseLatency: 50 * time.Microsecond, Seed: 1,
	})}
	reg := kernel.NewRegistry()
	reg.MustRegister(udp.Factory(transport.Sim(g.net)))
	reg.MustRegister(rp2p.Factory(rp2p.Config{}))
	reg.MustRegister(rbcast.Factory(rbcast.Config{}))
	reg.MustRegister(fd.Factory(fd.Config{}))
	reg.MustRegister(consensus.Factory())
	peers := make([]kernel.Addr, n)
	for i := range peers {
		peers[i] = kernel.Addr(i)
	}
	for i := 0; i < n; i++ {
		st := kernel.NewStack(kernel.Config{Addr: kernel.Addr(i), Peers: peers, Registry: reg})
		g.stacks = append(g.stacks, st)
		err := st.DoSync(func() {
			for _, p := range protocols {
				if _, e := st.CreateProtocol(p); e != nil {
					b.Fatalf("create %s: %v", p, e)
				}
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Cleanup(func() {
		g.net.Close()
		for _, st := range g.stacks {
			st.Close()
		}
	})
	return g
}

// BenchmarkRP2PThroughput streams b.N reliable messages between two
// stacks.
func BenchmarkRP2PThroughput(b *testing.B) {
	g := newBenchGroup(b, 2, rp2p.Protocol)
	var got atomic.Int64
	done := make(chan struct{}, 1)
	total := int64(b.N)
	g.stacks[1].Call(rp2p.Service, rp2p.Listen{Channel: "bench", Handler: func(rp2p.Recv) {
		if got.Add(1) == total {
			done <- struct{}{}
		}
	}})
	payload := make([]byte, 256)
	b.SetBytes(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.stacks[0].Call(rp2p.Service, rp2p.Send{To: 1, Channel: "bench", Data: payload})
	}
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		b.Fatalf("delivered %d of %d", got.Load(), b.N)
	}
}

// BenchmarkRBcastThroughput reliably broadcasts b.N messages in a
// 3-stack group.
func BenchmarkRBcastThroughput(b *testing.B) {
	g := newBenchGroup(b, 3, rbcast.Protocol)
	var got atomic.Int64
	done := make(chan struct{}, 1)
	total := int64(b.N) * 3
	for i := 0; i < 3; i++ {
		g.stacks[i].Call(rbcast.Service, rbcast.Listen{Channel: "bench", Handler: func(rbcast.Deliver) {
			if got.Add(1) == total {
				done <- struct{}{}
			}
		}})
	}
	payload := make([]byte, 256)
	b.SetBytes(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.stacks[i%3].Call(rbcast.Service, rbcast.Broadcast{Channel: "bench", Data: payload})
	}
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		b.Fatalf("delivered %d of %d", got.Load(), total)
	}
}

// BenchmarkConsensusSequential decides b.N consensus instances one
// after another in a 3-stack group.
func BenchmarkConsensusSequential(b *testing.B) {
	g := newBenchGroup(b, 3, consensus.Protocol)
	decided := make(chan consensus.InstanceID, 16)
	var mu sync.Mutex
	seen := make(map[consensus.InstanceID]int)
	for i := 0; i < 3; i++ {
		g.stacks[i].Call(consensus.Service, consensus.Listen{Group: 0, Handler: func(d consensus.Decide) {
			mu.Lock()
			seen[d.ID]++
			full := seen[d.ID] == 3
			mu.Unlock()
			if full {
				decided <- d.ID
			}
		}})
	}
	val := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := consensus.InstanceID{Group: 0, Seq: uint64(i)}
		for s := 0; s < 3; s++ {
			g.stacks[s].Call(consensus.Service, consensus.Propose{ID: id, Value: val})
		}
		select {
		case <-decided:
		case <-time.After(30 * time.Second):
			b.Fatalf("instance %d stalled", i)
		}
	}
}

// BenchmarkABcast measures end-to-end atomic broadcast throughput for
// each bundled implementation in a 3-stack group, through the full
// replacement layer (the paper's deployed shape), with sender-side
// batching enabled — the deployed configuration for heavy traffic. The
// unbatched per-message shape is covered by BenchmarkBroadcastLatency
// and the Figure 5/6 benches, which run with batching off.
func BenchmarkABcast(b *testing.B) {
	for _, proto := range []string{dpu.ProtocolCT, dpu.ProtocolSequencer, dpu.ProtocolToken} {
		b.Run(proto[7:], func(b *testing.B) {
			c, err := dpu.New(3, dpu.WithSeed(3), dpu.WithInitialProtocol(proto),
				dpu.WithBatching(500*time.Microsecond, 32<<10))
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			nodes, sub := benchNodes(b, c)
			payload := make([]byte, 256)
			b.SetBytes(256)
			b.ReportAllocs()
			b.ResetTimer()
			gotAll := make(chan struct{}, 1)
			go func() {
				for i := 0; i < b.N*3; i++ {
					<-sub.Deliveries()
				}
				gotAll <- struct{}{}
			}()
			for i := 0; i < b.N*3; i++ {
				if err := nodes[i%3].Broadcast(context.Background(), payload); err != nil {
					b.Fatal(err)
				}
			}
			select {
			case <-gotAll:
			case <-time.After(180 * time.Second):
				b.Fatal("broadcast stream stalled")
			}
		})
	}
}

// benchNodes returns a handle on every stack and stack 0's delivery
// stream. Block policy: the drainer must never lose a delivery, and it
// always consumes.
func benchNodes(b *testing.B, c *dpu.Cluster) ([]*dpu.Node, *dpu.Subscription) {
	b.Helper()
	nodes := make([]*dpu.Node, c.N())
	for i := range nodes {
		n, err := c.Node(i)
		if err != nil {
			b.Fatal(err)
		}
		nodes[i] = n
	}
	sub, err := nodes[0].Subscribe(dpu.SubscribeOptions{Deliveries: true, Policy: dpu.Block})
	if err != nil {
		b.Fatal(err)
	}
	return nodes, sub
}

// BenchmarkBroadcastLatency measures one round-trip (broadcast to
// self-delivery through total order) at a time — the per-message
// latency the paper's figures plot.
func BenchmarkBroadcastLatency(b *testing.B) {
	c, err := dpu.New(3, dpu.WithSeed(4))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	nodes, sub := benchNodes(b, c)
	payload := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := nodes[0].Broadcast(context.Background(), payload); err != nil {
			b.Fatal(err)
		}
		select {
		case <-sub.Deliveries():
		case <-time.After(30 * time.Second):
			b.Fatal("delivery stalled")
		}
	}
}
