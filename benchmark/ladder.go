package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/dpu"
	"repro/internal/abcast"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/kernel"
	"repro/internal/rbcast"
	"repro/internal/rp2p"
	"repro/internal/transport"
	"repro/internal/udp"
	"repro/internal/wire"
)

// The ladder is the paper's Figure 6 (with against without the
// replacement layer) taken from one rung to all of them: the same flood
// of 256-B messages in a group of three over UDP loopback, driven into a
// stack cut at each layer's public request. It is count-based, so
// allocations compare; successive differences are a layer's cost. The
// ladder is printed under ladderWorkload, which shares its fabric,
// payload size and group.

const (
	ladderWorkload = "udp-seq-small"
	ladderDeadline = 90 * time.Second // per rung
	ladderChan     = 9                // udp channel tag of the udp rung; no module claims it
	ladderChannel  = "benchmark"      // rp2p and rbcast channel of their rungs
)

// flood is the ladder's driver: it sends ids in order, at most
// `outstanding` of them incomplete, and a message is complete once
// `fanin` members have seen it.
type flood struct {
	fanin     int32
	seen      []atomic.Int32
	tokens    chan struct{}
	completed atomic.Int64
	target    atomic.Int64
	done      chan struct{}
}

func newFlood(total, outstanding, fanin int) *flood {
	return &flood{fanin: int32(fanin), seen: make([]atomic.Int32, total),
		tokens: make(chan struct{}, outstanding), done: make(chan struct{}, 1)}
}

// arrive records that one member saw id. Safe from any goroutine.
func (f *flood) arrive(id uint64) {
	if id >= uint64(len(f.seen)) || f.seen[id].Add(1) != f.fanin {
		return
	}
	<-f.tokens
	if f.completed.Add(1) == f.target.Load() {
		f.done <- struct{}{}
	}
}

// arrivePayload is arrive for a payload that starts with its id.
func (f *flood) arrivePayload(b []byte) {
	if len(b) >= 8 {
		f.arrive(binary.LittleEndian.Uint64(b))
	}
}

// run sends ids [from, to) and waits until all of them are complete.
func (f *flood) run(from, to uint64, send func(id uint64)) error {
	f.target.Store(int64(to))
	deadline := time.NewTimer(ladderDeadline)
	defer deadline.Stop()
	for id := from; id < to; id++ {
		select {
		case f.tokens <- struct{}{}:
		case <-deadline.C:
			return fmt.Errorf("stalled sending message %d, %d complete", id, f.completed.Load())
		}
		send(id)
	}
	select {
	case <-f.done:
		return nil
	case <-deadline.C:
		return fmt.Errorf("stalled with %d of %d messages complete", f.completed.Load(), to)
	}
}

// rung is one cut of the stack.
type rung struct {
	name  string
	fanin int
	// open builds the cut and returns how to send message id (the
	// payload starts with the id and is the caller's to keep), the wire
	// bytes sent so far, and how to close.
	open func(f *flood) (send func(id uint64, payload []byte), wireBytes func() uint64, close func(), err error)
}

// measure runs the warm-up and the measured flood through one rung.
func (r *rung) measure(res *result, warmup, messages int) error {
	total := warmup + messages
	f := newFlood(total, ladderWindow*groupSize, r.fanin)
	send, wireBytes, closeFn, err := r.open(f)
	if err != nil {
		return fmt.Errorf("ladder rung %s: %w", r.name, err)
	}
	defer closeFn()
	template := newPayloadBuffers(defaultSeed, 1, ladderPayload)[0]
	sendID := func(id uint64) {
		// A fresh buffer per message: several layers keep what they are
		// handed. The same allocation is paid on every rung.
		p := make([]byte, ladderPayload)
		copy(p, template)
		binary.LittleEndian.PutUint64(p, id)
		send(id, p)
	}
	if err := f.run(0, uint64(warmup), sendID); err != nil {
		return fmt.Errorf("ladder rung %s warm-up: %w", r.name, err)
	}
	// The measured messages go through in ladderChunks floods and the
	// rung reports its fastest: like a workload's best window, the chunk
	// the host disturbed least. Allocations and bytes are over them all.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	bytesBefore := wireBytes()
	best := time.Duration(0)
	chunk := messages / ladderChunks
	for c := 0; c < ladderChunks; c++ {
		from := uint64(warmup + c*chunk)
		start := time.Now()
		if err := f.run(from, from+uint64(chunk), sendID); err != nil {
			return fmt.Errorf("ladder rung %s: %w", r.name, err)
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	runtime.ReadMemStats(&after)
	per := float64(chunk * ladderChunks)
	setRung(res, r.name, float64(best.Nanoseconds())/float64(chunk),
		float64(after.Mallocs-before.Mallocs)/per, float64(wireBytes()-bytesBefore)/per)
	return nil
}

func setRung(res *result, name string, ns, allocs, wireBytes float64) {
	res.PerLayer["ladder."+name+".ns_per_msg"] = value{V: ns, Unit: "ns"}
	res.PerLayer["ladder."+name+".allocs_per_msg"] = value{V: allocs, Unit: "count"}
	res.PerLayer["ladder."+name+".wire_bytes_per_msg"] = value{V: wireBytes, Unit: "B"}
}

func noBytes() uint64 { return 0 }

// sink hands every indication of the services it is subscribed to to fn.
type sink struct {
	kernel.Base
	fn func(kernel.Indication)
}

func (s *sink) HandleIndication(_ kernel.ServiceID, ind kernel.Indication) { s.fn(ind) }

// countingModule is the kernel rung's provider.
type countingModule struct {
	kernel.Base
	fn func(kernel.Request)
}

func (m *countingModule) HandleRequest(_ kernel.ServiceID, req kernel.Request) { m.fn(req) }

// cut says how far up one rung builds each stack, and what the rung's
// driver then calls and listens to.
type cut struct {
	protocols []string     // created through the registry, in order, above net/udp
	direct    string       // an abcast implementation bound straight to abcast.ServiceImpl
	core      *core.Config // the replacement layer's configuration, when protocols names it
	// attach registers the rung's listeners; it runs on the executor.
	attach func(st *kernel.Stack, f *flood) error
	// The request the sender's stack is called with on svc.
	svc     kernel.ServiceID
	request func(to kernel.Addr, id uint64, payload []byte) kernel.Request
	mode    sendMode
}

type sendMode int

const (
	toGroup    sendMode = iota // one call by the sender, addressed to the group
	toEachPeer                 // one call by the sender per other member
	fromAll                    // the same call by every member (a consensus proposal)
)

// cutGroup is n stacks over one UDP loopback transport, each built up
// to the rung's cut. It is the benchmark's cut-stack builder, modelled
// on bench_test.go's newBenchGroup; when the repository is left with one
// stack builder, the ladder adopts it.
type cutGroup struct {
	tr     *transport.UDPTransport
	stacks []*kernel.Stack
}

func (g *cutGroup) close() {
	g.tr.Close()
	for _, st := range g.stacks {
		st.Close()
	}
}

func newCutGroup(n int, c *cut, f *flood) (g *cutGroup, err error) {
	err = retryBind(func() error {
		sk, err := openSockets(fabricUDP, n)
		if err != nil {
			return err
		}
		reg := kernel.NewRegistry()
		reg.MustRegister(udp.Factory(sk.udp))
		reg.MustRegister(rp2p.Factory(rp2p.Config{}))
		reg.MustRegister(rbcast.Factory(rbcast.Config{}))
		reg.MustRegister(fd.Factory(fd.Config{Interval: fdInterval, Timeout: fdTimeout}))
		reg.MustRegister(consensus.Factory())
		if c.core != nil {
			reg.MustRegister(core.Factory(*c.core))
		}
		peers := make([]kernel.Addr, n)
		for i := range peers {
			peers[i] = kernel.Addr(i)
		}
		g = &cutGroup{tr: sk.udp}
		for i := 0; i < n; i++ {
			st := kernel.NewStack(kernel.Config{Addr: kernel.Addr(i), Peers: peers, Registry: reg, Seed: defaultSeed + int64(i)})
			g.stacks = append(g.stacks, st)
			var buildErr error
			err := st.DoSync(func() {
				if _, buildErr = st.CreateProtocol(udp.Protocol); buildErr != nil {
					return
				}
				if um, ok := st.Provider(udp.Service).(*udp.Module); ok && um.OpenErr() != nil {
					buildErr = um.OpenErr()
					return
				}
				for _, p := range c.protocols {
					if _, buildErr = st.CreateProtocol(p); buildErr != nil {
						return
					}
				}
				if c.direct != "" {
					if buildErr = bindDirect(st, c.direct); buildErr != nil {
						return
					}
				}
				buildErr = c.attach(st, f)
			})
			if err == nil {
				err = buildErr
			}
			if err != nil {
				g.close()
				return err
			}
		}
		return nil
	})
	return g, err
}

// bindDirect binds an atomic-broadcast implementation to
// abcast.ServiceImpl with no replacement layer above it, the way the
// paper's "without replacement layer" baseline is assembled.
func bindDirect(st *kernel.Stack, protocol string) error {
	im, ok := abcast.StandardRegistry().Lookup(protocol)
	if !ok {
		return fmt.Errorf("no implementation %q", protocol)
	}
	for _, svc := range im.Requires {
		if err := st.EnsureService(svc); err != nil {
			return err
		}
	}
	mod := im.New(st, 0)
	if err := st.AddModule(mod); err != nil {
		return err
	}
	if err := st.Bind(abcast.ServiceImpl, mod); err != nil {
		return err
	}
	mod.Start()
	return nil
}

// addSink subscribes a sink to svc. Executor-only.
func addSink(st *kernel.Stack, svc kernel.ServiceID, fn func(kernel.Indication)) error {
	s := &sink{Base: kernel.NewBase(st, "benchmark/sink"), fn: fn}
	if err := st.AddModule(s); err != nil {
		return err
	}
	st.Subscribe(svc, s)
	return nil
}

// groupRung is a rung over a cutGroup.
func groupRung(name string, fanin int, c cut) rung {
	return rung{name: name, fanin: fanin, open: func(f *flood) (func(uint64, []byte), func() uint64, func(), error) {
		g, err := newCutGroup(groupSize, &c, f)
		if err != nil {
			return nil, nil, nil, err
		}
		send := func(id uint64, payload []byte) {
			from := int(id % groupSize)
			switch c.mode {
			case fromAll:
				for _, st := range g.stacks {
					st.Call(c.svc, c.request(0, id, payload))
				}
			case toEachPeer:
				for p := 0; p < groupSize; p++ {
					if p != from {
						g.stacks[from].Call(c.svc, c.request(kernel.Addr(p), id, payload))
					}
				}
			default:
				g.stacks[from].Call(c.svc, c.request(0, id, payload))
			}
		}
		return send, func() uint64 { return g.tr.Stats().Bytes }, g.close, nil
	}}
}

// abcastRung drives one atomic-broadcast implementation directly.
func abcastRung(name, protocol string) rung {
	return groupRung(name, groupSize, cut{
		direct: protocol,
		attach: func(st *kernel.Stack, f *flood) error {
			return addSink(st, abcast.ServiceImpl, func(ind kernel.Indication) {
				if d, ok := ind.(abcast.Deliver); ok {
					f.arrivePayload(d.Data)
				}
			})
		},
		svc:     abcast.ServiceImpl,
		request: func(_ kernel.Addr, _ uint64, p []byte) kernel.Request { return abcast.Broadcast{Data: p} },
	})
}

// coreRung puts the replacement layer over abcast/ct.
func coreRung(name string, cfg core.Config) rung {
	cfg.InitialProtocol = abcast.ProtocolCT
	return groupRung(name, groupSize, cut{
		protocols: []string{core.Protocol},
		core:      &cfg,
		attach: func(st *kernel.Stack, f *flood) error {
			return addSink(st, core.Service, func(ind kernel.Indication) {
				if d, ok := ind.(core.Deliver); ok {
					f.arrivePayload(d.Data)
				}
			})
		},
		svc:     core.Service,
		request: func(_ kernel.Addr, _ uint64, p []byte) kernel.Request { return core.Broadcast{Data: p} },
	})
}

// dpuRung goes through the public API: Node.Broadcast to Subscription.
func dpuRung(name string, n int) rung {
	return rung{name: name, fanin: n, open: func(f *flood) (func(uint64, []byte), func() uint64, func(), error) {
		spec := &workloadSpec{name: name, fabric: fabricUDP, protocol: dpu.ProtocolCT, window: ladderWindow}
		cl, err := newCluster(spec, n, defaultSeed, nil)
		if err != nil {
			return nil, nil, nil, err
		}
		subs, err := cl.subscribe(dpu.DropOldest)
		if err != nil {
			cl.Close()
			return nil, nil, nil, err
		}
		var wg sync.WaitGroup
		for _, s := range subs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for d := range s.Deliveries() {
					f.arrivePayload(d.Data)
				}
			}()
		}
		ctx := context.Background()
		send := func(id uint64, payload []byte) {
			if err := cl.nodes[id%uint64(n)].Broadcast(ctx, payload); err != nil {
				f.arrive(id) // let the flood end; the shortfall fails it
			}
		}
		return send, func() uint64 { return cl.udp.Stats().Bytes }, func() { cl.Close(); wg.Wait() }, nil
	}}
}

func ladder() []rung {
	frame := make([]byte, 0, ladderPayload+wire.FrameOverhead+16)
	return []rung{
		{name: "harness", fanin: 1, open: func(f *flood) (func(uint64, []byte), func() uint64, func(), error) {
			return func(id uint64, p []byte) { f.arrivePayload(p) }, noBytes, func() {}, nil
		}},
		// One message is one frame to each of the two other members:
		// encode, seal, open and decode, as udp.Send and the receive path
		// do, without a socket in between.
		{name: "wire", fanin: groupSize - 1, open: func(f *flood) (func(uint64, []byte), func() uint64, func(), error) {
			return func(id uint64, p []byte) {
				for peer := 0; peer < groupSize-1; peer++ {
					w := wire.GetWriter(len(p) + wire.FrameOverhead)
					w.Byte(ladderChan).Pad(wire.FrameOverhead - 1).Raw(p)
					wire.SealFrame(w.Bytes(), id%groupSize)
					frame = append(frame[:0], w.Bytes()...)
					w.Free()
					if _, payload, ok := wire.OpenFrame(frame, id%groupSize); ok {
						f.arrivePayload(payload)
					}
				}
			}, noBytes, func() {}, nil
		}},
		{name: "kernel", fanin: 1, open: func(f *flood) (func(uint64, []byte), func() uint64, func(), error) {
			st := kernel.NewStack(kernel.Config{Addr: 0, Peers: []kernel.Addr{0}})
			var addErr error
			err := st.DoSync(func() {
				m := &countingModule{Base: kernel.NewBase(st, "benchmark/count"), fn: func(req kernel.Request) {
					f.arrivePayload(req.([]byte))
				}}
				if addErr = st.AddModule(m); addErr == nil {
					addErr = st.Bind("benchmark", m)
				}
			})
			if err == nil {
				err = addErr
			}
			return func(_ uint64, p []byte) { st.Call("benchmark", p) }, noBytes, st.Close, err
		}},
		{name: "transport", fanin: groupSize - 1, open: func(f *flood) (func(uint64, []byte), func() uint64, func(), error) {
			var eps []transport.Endpoint
			var tr *transport.UDPTransport
			err := retryBind(func() error {
				sk, err := openSockets(fabricUDP, groupSize)
				if err != nil {
					return err
				}
				tr, eps = sk.udp, eps[:0]
				for i := 0; i < groupSize; i++ {
					ep, err := tr.Open(transport.Addr(i), func(_ transport.Addr, b []byte) { f.arrivePayload(b) })
					if err != nil {
						tr.Close()
						return err
					}
					eps = append(eps, ep)
				}
				return nil
			})
			if err != nil {
				return nil, nil, nil, err
			}
			return func(id uint64, p []byte) {
				from := int(id % groupSize)
				for peer := 0; peer < groupSize; peer++ {
					if peer != from {
						eps[from].Send(transport.Addr(peer), p)
					}
				}
			}, func() uint64 { return tr.Stats().Bytes }, tr.Close, nil
		}},
		groupRung("udp", groupSize-1, cut{
			attach: func(st *kernel.Stack, f *flood) error {
				return addSink(st, udp.Service, func(ind kernel.Indication) {
					if rv, ok := ind.(udp.Recv); ok && rv.Chan == ladderChan {
						f.arrivePayload(rv.Data)
					}
				})
			},
			svc: udp.Service, mode: toEachPeer,
			request: func(to kernel.Addr, _ uint64, p []byte) kernel.Request {
				return udp.Send{To: to, Chan: ladderChan, Data: p}
			},
		}),
		groupRung("rp2p", groupSize-1, cut{
			protocols: []string{rp2p.Protocol},
			attach: func(st *kernel.Stack, f *flood) error {
				st.Call(rp2p.Service, rp2p.Listen{Channel: ladderChannel, Handler: func(rv rp2p.Recv) { f.arrivePayload(rv.Data) }})
				return nil
			},
			svc: rp2p.Service, mode: toEachPeer,
			request: func(to kernel.Addr, _ uint64, p []byte) kernel.Request {
				return rp2p.Send{To: to, Channel: ladderChannel, Data: p}
			},
		}),
		groupRung("rbcast", groupSize, cut{
			protocols: []string{rbcast.Protocol},
			attach: func(st *kernel.Stack, f *flood) error {
				st.Call(rbcast.Service, rbcast.Listen{Channel: ladderChannel, Handler: func(d rbcast.Deliver) { f.arrivePayload(d.Data) }})
				return nil
			},
			svc: rbcast.Service,
			request: func(_ kernel.Addr, _ uint64, p []byte) kernel.Request {
				return rbcast.Broadcast{Channel: ladderChannel, Data: p}
			},
		}),
		groupRung("consensus", groupSize, cut{
			protocols: []string{consensus.Protocol},
			attach: func(st *kernel.Stack, f *flood) error {
				st.Call(consensus.Service, consensus.Listen{Group: 0, Handler: func(d consensus.Decide) { f.arrive(d.ID.Seq) }})
				return nil
			},
			svc: consensus.Service, mode: fromAll,
			request: func(_ kernel.Addr, id uint64, p []byte) kernel.Request {
				return consensus.Propose{ID: consensus.InstanceID{Group: 0, Seq: id}, Value: p}
			},
		}),
		abcastRung("abcast_ct", abcast.ProtocolCT),
		abcastRung("abcast_seq", abcast.ProtocolSeq),
		abcastRung("abcast_token", abcast.ProtocolToken),
		coreRung("core", core.Config{}),
		coreRung("core_batched", core.Config{BatchDelay: 500 * time.Microsecond, BatchBytes: 32 << 10}),
		dpuRung("dpu", groupSize),
		dpuRung("dpu_n1", 1),
	}
}

// runLadder measures every rung into res: warmup messages unmeasured,
// then messages measured, per rung.
func runLadder(res *result, warmup, messages int) error {
	for _, r := range ladder() {
		if err := r.measure(res, warmup, messages); err != nil {
			return err
		}
	}
	ct, repl := res.PerLayer["ladder.abcast_ct.ns_per_msg"].V, res.PerLayer["ladder.core.ns_per_msg"].V
	res.PerLayer["ladder.repl_overhead_pct"] = value{V: 100 * (ratio(repl, ct) - 1), Unit: "%"}
	res.note("ladder.repl_overhead_pct: core %.0f ns/msg over abcast_ct %.0f ns/msg", repl, ct)
	return nil
}

// harnessCapacity drives the workload harness itself — generator, slot
// table, auditor, collector — against a null echo that copies each
// payload to three channels, and reports the rate it sustains. A
// workload that comes near it measures the harness.
func harnessCapacity(res *result, messages int) error {
	spec := &workloadSpec{name: "harness", payload: ladderPayload}
	r := &wallRun{spec: spec, seed: res.Seed, senders: groupSize, ctx: context.Background(),
		limit: uint64(messages), collectorDone: make(chan struct{})}
	r.aud = newAuditor(groupSize, spec.payload, &r.slots, &r.issued)
	var echo [groupSize]chan dpu.Delivery
	for i := range echo {
		echo[i] = make(chan dpu.Delivery, subBuffer)
		r.dch[i] = echo[i]
	}
	r.sendFn = func(stack int, payload []byte) error {
		data := bytes.Clone(payload) // the copy Node.Broadcast makes
		for i := range echo {
			echo[i] <- dpu.Delivery{Stack: i, Origin: stack, Data: data}
		}
		return nil
	}
	var collector sync.WaitGroup
	collector.Add(1)
	go func() { defer collector.Done(); r.collect() }()
	stopCollector := sync.OnceFunc(func() { close(r.collectorDone); collector.Wait() })
	defer stopCollector()
	r.epoch = time.Now()
	r.generateClosed()
	for r.aud.completed.Load() < r.limit {
		if time.Since(r.epoch) > ladderDeadline {
			return fmt.Errorf("harness capacity probe stalled at %d of %d", r.aud.completed.Load(), r.limit)
		}
		time.Sleep(100 * time.Microsecond)
	}
	elapsed := time.Since(r.epoch)
	stopCollector()
	if r.aud.finish(r.limit); r.aud.firstErr != nil {
		return fmt.Errorf("harness capacity probe: %w", r.aud.firstErr)
	}
	res.PerLayer["harness.capacity_msgs_s"] = value{V: float64(r.limit) / elapsed.Seconds(), Unit: "msgs/s"}
	return nil
}
