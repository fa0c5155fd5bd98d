// Command dpu-bench regenerates every figure of the paper's evaluation
// (Section 6) and the ablations listed in DESIGN.md, printing the same
// rows/series the paper plots. With -json it additionally writes a
// schema-stable BENCH_*.json file (see docs/PERFORMANCE.md for the
// schema), so the repository's performance trajectory is recorded
// run-over-run.
//
// Usage:
//
//	dpu-bench -fig 5                 # Figure 5: latency timeline around a replacement
//	dpu-bench -fig 6                 # Figure 6: latency vs load, n=3 and n=7
//	dpu-bench -fig ablation-managers # ours vs Maestro vs Graceful
//	dpu-bench -fig ablation-reissue  # switch cost vs undelivered backlog
//	dpu-bench -fig ablation-matrix   # cross-protocol switch matrix
//	dpu-bench -fig throughput        # hot-path throughput probe (batched vs not)
//	dpu-bench -fig syscall-batch     # syscalls/message over the batched UDP backend
//	dpu-bench -fig parallel          # pooled-executor throughput at GOMAXPROCS>1
//	dpu-bench -fig membership        # view-change churn probe (runtime join/evict)
//	dpu-bench -fig all               # everything
//	dpu-bench -quick -json           # fast smoke run + BENCH_results.json
//
// Declarative scenarios (see docs/SCENARIOS.md) run a cluster through
// a scripted environment/membership timeline under virtual time with
// the invariant checkers on, and verify the per-phase and end-state
// expectations written in the scenario file:
//
//	dpu-bench -scenario loss-ramp            # corpus entry by name
//	dpu-bench -scenario all -json            # whole scenarios/ corpus
//	dpu-bench -scenario file:my.dpu.yaml     # any scenario file on disk
//	dpu-bench -scenario large-50 -seed 9     # override the committed seed
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/dpu"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// report is the JSON document -json emits. Field names are the schema;
// additions are allowed, renames and removals are not (downstream
// tooling diffs these files across commits).
type report struct {
	Schema     string `json:"schema"` // "dpu-bench/v1"
	Generated  string `json:"generated,omitempty"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Quick      bool   `json:"quick"`
	Seed       int64  `json:"seed"`

	Figure5          *figure5JSON      `json:"figure5,omitempty"`
	Figure6          []figure6JSON     `json:"figure6,omitempty"`
	AblationManagers []managerJSON     `json:"ablation_managers,omitempty"`
	AblationReissue  []reissueJSON     `json:"ablation_reissue,omitempty"`
	AblationMatrix   []matrixJSON      `json:"ablation_matrix,omitempty"`
	Throughput       *throughputJSON   `json:"throughput,omitempty"`
	SyscallBatch     *syscallBatchJSON `json:"syscall_batch,omitempty"`
	Stream           *streamJSON       `json:"stream,omitempty"`
	Parallel         *parallelJSON     `json:"parallel,omitempty"`
	Membership       *membershipJSON   `json:"membership,omitempty"`
	Scenarios        []scenarioJSON    `json:"scenarios,omitempty"`
	Counters         map[string]uint64 `json:"counters,omitempty"`
}

type figure5JSON struct {
	N              int     `json:"n"`
	RatePerStack   float64 `json:"rate_per_stack"`
	PayloadBytes   int     `json:"payload_bytes"`
	BaselineMs     float64 `json:"baseline_ms"`
	DuringMs       float64 `json:"during_ms"`
	AfterMs        float64 `json:"after_ms"`
	OverheadPct    float64 `json:"overhead_pct"`
	SwitchWindowMs float64 `json:"switch_window_ms"`
	Sent           int     `json:"sent"`
	Complete       int     `json:"complete"`
}

type figure6JSON struct {
	N                int     `json:"n"`
	Load             float64 `json:"load"`
	NoLayerMs        float64 `json:"no_layer_ms"`
	WithLayerMs      float64 `json:"with_layer_ms"`
	DuringMs         float64 `json:"during_ms"`
	LayerOverheadPct float64 `json:"layer_overhead_pct"`
}

type managerJSON struct {
	Manager    string  `json:"manager"`
	SwitchMs   float64 `json:"switch_ms"`
	BaselineMs float64 `json:"baseline_ms"`
	DuringMs   float64 `json:"during_ms"`
}

type reissueJSON struct {
	Backlog  int     `json:"backlog"`
	SwitchMs float64 `json:"switch_ms"`
	DrainMs  float64 `json:"drain_ms"`
}

type matrixJSON struct {
	From       string  `json:"from"`
	To         string  `json:"to"`
	SwitchMs   float64 `json:"switch_ms"`
	BaselineMs float64 `json:"baseline_ms"`
	DuringMs   float64 `json:"during_ms"`
}

type throughputJSON struct {
	N                   int     `json:"n"`
	PayloadBytes        int     `json:"payload_bytes"`
	Messages            int     `json:"messages"`
	BatchMaxDelayUs     int64   `json:"batch_max_delay_us"`
	BatchMaxBytes       int     `json:"batch_max_bytes"`
	UnbatchedMsgsPerSec float64 `json:"unbatched_msgs_per_sec"`
	BatchedMsgsPerSec   float64 `json:"batched_msgs_per_sec"`
}

// syscallBatchJSON records the syscall-amortization probe: the same
// real-UDP workload over the sendmmsg/recvmmsg backend and over the
// portable one-datagram-per-syscall fallback, with the transport's
// syscall and datagram counters for each. SyscallsPerMessage is
// (send+recv syscalls) / (sent+delivered datagrams): 1.0 for the
// fallback by construction, and 2/batch-size in the ideal batched case.
type syscallBatchJSON struct {
	N                 int                 `json:"n"`
	PayloadBytes      int                 `json:"payload_bytes"`
	Messages          int                 `json:"messages"`
	BackendAvailable  bool                `json:"backend_available"`
	Batched           syscallBatchRunJSON `json:"batched"`
	Fallback          syscallBatchRunJSON `json:"fallback"`
	SyscallsSavedPct  float64             `json:"syscalls_saved_pct"`
	ThroughputGainPct float64             `json:"throughput_gain_pct"`
}

type syscallBatchRunJSON struct {
	MsgsPerSec         float64 `json:"msgs_per_sec"`
	Sent               uint64  `json:"sent"`
	Delivered          uint64  `json:"delivered"`
	SendCalls          uint64  `json:"send_calls"`
	RecvCalls          uint64  `json:"recv_calls"`
	SyscallsPerMessage float64 `json:"syscalls_per_message"`
}

// parallelJSON records the pooled-executor throughput figure: the same
// batched real-UDP workload with one dedicated goroutine per stack vs
// the shared executor pool, at whatever GOMAXPROCS the run was given.
type parallelJSON struct {
	N                   int     `json:"n"`
	PayloadBytes        int     `json:"payload_bytes"`
	Messages            int     `json:"messages"`
	GOMAXPROCS          int     `json:"gomaxprocs"`
	PoolWorkers         int     `json:"pool_workers"`
	DedicatedMsgsPerSec float64 `json:"dedicated_msgs_per_sec"`
	PooledMsgsPerSec    float64 `json:"pooled_msgs_per_sec"`
	SpeedupPct          float64 `json:"speedup_pct"`
}

type membershipJSON struct {
	N           int     `json:"n"`
	Joins       int     `json:"joins"`
	Evictions   int     `json:"evictions"`
	JoinMs      float64 `json:"join_ms"`  // mean confirmed AddNode latency
	EvictMs     float64 `json:"evict_ms"` // mean confirmed Evict latency
	FinalViewID uint64  `json:"final_view_id"`
}

// scenarioJSON records one scenario timeline: the scripted phases,
// whether each converged to its expected protocol, and every switch
// performed. The policy.* counters land in the top-level counter
// section. Scenarios run under virtual time since the engine moved to
// internal/scenario; the added fields record the run's determinism
// witness (seed + digest) and the virtual/wall time split.
type scenarioJSON struct {
	Name         string              `json:"name"`
	N            int                 `json:"n"`
	Policy       string              `json:"policy"`
	InitialProto string              `json:"initial_protocol"`
	Transport    string              `json:"transport,omitempty"`
	Phases       []scenarioPhaseJSON `json:"phases"`
	Switches     []scenarioEventJSON `json:"switches"`
	AdviceEvents int                 `json:"advice_events"`
	Seed         int64               `json:"scenario_seed,omitempty"`
	Deliveries   int                 `json:"deliveries,omitempty"`
	Views        int                 `json:"views,omitempty"`
	Digest       string              `json:"digest,omitempty"`
	VirtualMs    float64             `json:"virtual_ms,omitempty"`
	WallMs       float64             `json:"wall_ms,omitempty"`
}

type scenarioPhaseJSON struct {
	Name         string  `json:"name"`
	LossPct      float64 `json:"loss_pct"`
	DelayUs      int64   `json:"delay_us"`
	DurationMs   float64 `json:"duration_ms"`
	WantProtocol string  `json:"want_protocol,omitempty"`
	EndProtocol  string  `json:"end_protocol"`
	Converged    bool    `json:"converged"`
	ConvergeMs   float64 `json:"converge_ms,omitempty"`
	Switches     int     `json:"switches"`
}

type scenarioEventJSON struct {
	AtMs     float64 `json:"at_ms"` // relative to scenario start
	Protocol string  `json:"protocol"`
	Epoch    uint64  `json:"epoch"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// throughputProbe floods msgs 256-byte broadcasts through a 3-stack
// cluster and measures delivered messages/sec on one stack, with and
// without sender-side batching — the headline hot-path number.
func throughputProbe(msgs int, seed int64) (*throughputJSON, error) {
	const payloadBytes = 256
	const batchDelay = 500 * time.Microsecond
	const batchBytes = 32 << 10
	run := func(opts ...dpu.Option) (float64, error) {
		c, err := dpu.New(3, append(opts, dpu.WithSeed(seed))...)
		if err != nil {
			return 0, err
		}
		defer c.Close()
		return flood(c, msgs, payloadBytes)
	}
	unbatched, err := run()
	if err != nil {
		return nil, err
	}
	batched, err := run(dpu.WithBatching(batchDelay, batchBytes))
	if err != nil {
		return nil, err
	}
	return &throughputJSON{
		N: 3, PayloadBytes: payloadBytes, Messages: msgs * 3,
		BatchMaxDelayUs: batchDelay.Microseconds(), BatchMaxBytes: batchBytes,
		UnbatchedMsgsPerSec: unbatched, BatchedMsgsPerSec: batched,
	}, nil
}

// flood pushes msgs broadcasts of payloadBytes from each of the
// cluster's three stacks concurrently and returns delivered messages/sec
// on stack 0. The senders are paced by the cluster's WithMaxOutstanding
// window.
func flood(c *dpu.Cluster, msgs, payloadBytes int) (float64, error) {
	nodes := make([]*dpu.Node, 3)
	for i := range nodes {
		var err error
		if nodes[i], err = c.Node(i); err != nil {
			return 0, err
		}
	}
	// Block: the count below must see every delivery, and the drainer
	// always consumes.
	sub, err := nodes[0].Subscribe(dpu.SubscribeOptions{Deliveries: true, Policy: dpu.Block})
	if err != nil {
		return 0, err
	}
	payload := make([]byte, payloadBytes)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < msgs*3; i++ {
			<-sub.Deliveries()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	start := time.Now()
	errc := make(chan error, 3)
	for _, n := range nodes {
		go func(n *dpu.Node) {
			for i := 0; i < msgs; i++ {
				if err := n.Broadcast(ctx, payload); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(n)
	}
	for range nodes {
		if err := <-errc; err != nil {
			return 0, err
		}
	}
	select {
	case <-done:
	case <-ctx.Done():
		return 0, fmt.Errorf("flood of %d-byte payloads stalled", payloadBytes)
	}
	return float64(msgs*3) / time.Since(start).Seconds(), nil
}

// reserveLoopbackBook grabs n ephemeral loopback UDP ports and returns
// them as a transport address book. The sockets are closed before the
// book is used, so a concurrent process could in principle steal a
// port; for a single-process bench run the window is harmless.
func reserveLoopbackBook(n int) (map[transport.Addr]string, error) {
	book := make(map[transport.Addr]string, n)
	conns := make([]*net.UDPConn, 0, n)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < n; i++ {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, err
		}
		conns = append(conns, c)
		book[transport.Addr(i)] = c.LocalAddr().String()
	}
	return book, nil
}

// realUDPRun pushes msgs broadcasts per stack through a 3-stack cluster
// over real loopback sockets and returns delivered messages/sec on
// stack 0 plus the transport's syscall/datagram counters. The window is
// kept small: real sockets have finite buffers, and a deeper flood
// drowns the run in kernel-side drops and retransmissions instead of
// measuring the steady state.
func realUDPRun(msgs, payloadBytes int, seed int64, disableBatching bool, extra ...dpu.Option) (float64, transport.UDPStats, error) {
	book, err := reserveLoopbackBook(3)
	if err != nil {
		return 0, transport.UDPStats{}, err
	}
	tr, err := transport.NewUDP(transport.UDPConfig{
		Book: book, DisableBatching: disableBatching,
		SocketBuffer: 4 << 20, // ride out sendmmsg bursts without kernel drops
	})
	if err != nil {
		return 0, transport.UDPStats{}, err
	}
	opts := append([]dpu.Option{
		dpu.WithTransport(tr), dpu.WithSeed(seed),
		dpu.WithMaxOutstanding(64),
	}, extra...)
	c, err := dpu.New(3, opts...)
	if err != nil {
		return 0, transport.UDPStats{}, err
	}
	defer c.Close()
	rate, err := flood(c, msgs, payloadBytes)
	return rate, tr.Stats(), err
}

// syscallsPerMessage condenses one run's stats into the headline
// amortization ratio.
func syscallsPerMessage(st transport.UDPStats) float64 {
	if st.Sent+st.Delivered == 0 {
		return 0
	}
	return float64(st.SendCalls+st.RecvCalls) / float64(st.Sent+st.Delivered)
}

// syscallBatchProbe runs the identical real-UDP workload over the
// batched backend and the portable fallback, recording throughput and
// the syscall budget of each. App-level broadcast batching stays OFF so
// every protocol datagram hits the socket layer individually — the
// worst case the sendmmsg/recvmmsg backend exists to amortize.
func syscallBatchProbe(msgs int, seed int64) (*syscallBatchJSON, error) {
	const payloadBytes = 256
	out := &syscallBatchJSON{
		N: 3, PayloadBytes: payloadBytes, Messages: msgs * 3,
		BackendAvailable: transport.BatchSyscallsAvailable(),
	}
	rate, st, err := realUDPRun(msgs, payloadBytes, seed, false)
	if err != nil {
		return nil, err
	}
	out.Batched = syscallBatchRunJSON{
		MsgsPerSec: rate, Sent: st.Sent, Delivered: st.Delivered,
		SendCalls: st.SendCalls, RecvCalls: st.RecvCalls,
		SyscallsPerMessage: syscallsPerMessage(st),
	}
	rate, st, err = realUDPRun(msgs, payloadBytes, seed, true)
	if err != nil {
		return nil, err
	}
	out.Fallback = syscallBatchRunJSON{
		MsgsPerSec: rate, Sent: st.Sent, Delivered: st.Delivered,
		SendCalls: st.SendCalls, RecvCalls: st.RecvCalls,
		SyscallsPerMessage: syscallsPerMessage(st),
	}
	if out.Fallback.SyscallsPerMessage > 0 {
		out.SyscallsSavedPct = 100 * (1 - out.Batched.SyscallsPerMessage/out.Fallback.SyscallsPerMessage)
	}
	if out.Fallback.MsgsPerSec > 0 {
		out.ThroughputGainPct = 100 * (out.Batched.MsgsPerSec/out.Fallback.MsgsPerSec - 1)
	}
	return out, nil
}

// parallelProbe measures what the shared executor pool buys on a
// multi-core budget: the same batched-backend real-UDP workload with
// dedicated per-stack goroutines vs WithExecutorPool. Meaningful at
// GOMAXPROCS > 1 with real cores behind it; on a single core it
// documents the no-win case the WithExecutorPool godoc promises.
func parallelProbe(msgs int, seed int64) (*parallelJSON, error) {
	const payloadBytes = 256
	dedicated, _, err := realUDPRun(msgs, payloadBytes, seed, false)
	if err != nil {
		return nil, err
	}
	pooled, _, err := realUDPRun(msgs, payloadBytes, seed, false, dpu.WithExecutorPool(0))
	if err != nil {
		return nil, err
	}
	return &parallelJSON{
		N: 3, PayloadBytes: payloadBytes, Messages: msgs * 3,
		GOMAXPROCS: runtime.GOMAXPROCS(0), PoolWorkers: runtime.GOMAXPROCS(0),
		DedicatedMsgsPerSec: dedicated, PooledMsgsPerSec: pooled,
		SpeedupPct: 100 * (pooled/dedicated - 1),
	}, nil
}

// membershipProbe measures view-change churn: confirmed runtime joins
// (AddNode) and evictions through a live cluster, which also populates
// the membership.* counters the JSON report exports.
func membershipProbe(rounds int, seed int64) (*membershipJSON, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	c, err := dpu.New(3, dpu.WithSeed(seed), dpu.WithMembership())
	if err != nil {
		return nil, err
	}
	defer c.Close()
	sponsor, err := c.Node(0)
	if err != nil {
		return nil, err
	}
	var joinTotal, evictTotal time.Duration
	for i := 0; i < rounds; i++ {
		start := time.Now()
		node, err := c.AddNode(ctx, "")
		if err != nil {
			return nil, fmt.Errorf("join round %d: %w", i, err)
		}
		joinTotal += time.Since(start)
		start = time.Now()
		if _, err := sponsor.Evict(ctx, node.Index()); err != nil {
			return nil, fmt.Errorf("evict round %d: %w", i, err)
		}
		evictTotal += time.Since(start)
	}
	st, err := sponsor.Status(ctx)
	if err != nil {
		return nil, err
	}
	return &membershipJSON{
		N: 3, Joins: rounds, Evictions: rounds,
		JoinMs:      ms(joinTotal) / float64(rounds),
		EvictMs:     ms(evictTotal) / float64(rounds),
		FinalViewID: st.ViewID,
	}, nil
}

func main() {
	fig := flag.String("fig", "all", "which figure(s) to regenerate (comma-separated): 5, 6, ablation-managers, ablation-reissue, ablation-matrix, throughput, syscall-batch, stream, parallel, membership, all")
	scenario := flag.String("scenario", "", "scenario(s) to run instead of figures: a corpus name, file:<path>, or all (comma-separated; see docs/SCENARIOS.md)")
	transportFlag := flag.String("transport", "", "override the scenarios' transport: sim, udp or tcp (scenario runs only)")
	n := flag.Int("n", 7, "group size for Figure 5")
	rate := flag.Float64("rate", 50, "per-stack message rate for Figure 5 [msg/s]")
	payload := flag.Int("payload", 1024, "payload size for Figure 5 [bytes]")
	duration := flag.Duration("duration", 4*time.Second, "Figure 5 experiment duration")
	seed := flag.Int64("seed", 42, "simulation seed")
	quick := flag.Bool("quick", false, "shrink durations/sweeps for a fast smoke run")
	jsonOut := flag.Bool("json", false, "also write the results as machine-readable JSON")
	outPath := flag.String("out", "BENCH_results.json", "output path for -json")
	stamp := flag.Bool("stamp", true, "record the generation time in the JSON (disable for reproducible diffs)")
	flag.Parse()

	rep := &report{
		Schema:     "dpu-bench/v1",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      *quick,
		Seed:       *seed,
	}
	if *stamp {
		rep.Generated = time.Now().UTC().Format(time.RFC3339)
	}

	run := func(name string, fn func() error) {
		fmt.Printf("==> %s\n", name)
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s took %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	// -scenario selects the adaptive timelines and skips the figures; the
	// two probe different things and a CI job typically wants one or the
	// other.
	figs := make(map[string]bool)
	for _, f := range strings.Split(*fig, ",") {
		figs[strings.TrimSpace(f)] = true
	}
	want := func(name string) bool { return *scenario == "" && (figs["all"] || figs[name]) }

	if want("5") {
		run("Figure 5", func() error {
			cfg := experiments.Figure5Config{
				N: *n, RatePerStack: *rate, PayloadSize: *payload,
				Duration: *duration, Seed: *seed,
			}
			if *quick {
				cfg.N, cfg.Duration, cfg.PayloadSize = 3, time.Second, 512
			}
			res, err := experiments.RunFigure5(cfg)
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			rep.Figure5 = &figure5JSON{
				N: res.Config.N, RatePerStack: res.Config.RatePerStack,
				PayloadBytes: res.Config.PayloadSize,
				BaselineMs:   ms(res.BaselineAvg), DuringMs: ms(res.DuringAvg),
				AfterMs: ms(res.AfterAvg), OverheadPct: res.OverheadPct(),
				SwitchWindowMs: ms(res.SwitchDone - res.SwitchStart),
				Sent:           res.Sent, Complete: res.Complete,
			}
			return nil
		})
	}
	if want("6") {
		run("Figure 6", func() error {
			cfg := experiments.Figure6Config{Seed: *seed}
			if *quick {
				cfg.Ns = []int{3}
				cfg.Loads = []float64{60, 120}
				cfg.Duration = 800 * time.Millisecond
			}
			points, err := experiments.RunFigure6(cfg)
			if err != nil {
				return err
			}
			experiments.PrintFigure6(os.Stdout, cfg, points)
			for _, p := range points {
				rep.Figure6 = append(rep.Figure6, figure6JSON{
					N: p.N, Load: p.Load,
					NoLayerMs: ms(p.NoLayer), WithLayerMs: ms(p.WithLayer),
					DuringMs: ms(p.During), LayerOverheadPct: p.LayerOverheadPct(),
				})
			}
			return nil
		})
	}
	if want("ablation-managers") {
		run("Ablation A (managers)", func() error {
			rs, err := experiments.RunManagersComparison(3, 60, *seed)
			if err != nil {
				return err
			}
			experiments.PrintManagersComparison(os.Stdout, 3, 60, rs)
			for _, r := range rs {
				rep.AblationManagers = append(rep.AblationManagers, managerJSON{
					Manager:  string(r.Manager),
					SwitchMs: ms(r.SwitchDuration), BaselineMs: ms(r.BaselineAvg),
					DuringMs: ms(r.DuringAvg),
				})
			}
			return nil
		})
	}
	if want("ablation-reissue") {
		run("Ablation B (reissue scaling)", func() error {
			backlogs := []int{0, 50, 200, 500, 1000}
			if *quick {
				backlogs = []int{0, 100}
			}
			rs, err := experiments.RunReissueScaling(backlogs, *seed)
			if err != nil {
				return err
			}
			experiments.PrintReissueScaling(os.Stdout, rs)
			for _, r := range rs {
				rep.AblationReissue = append(rep.AblationReissue, reissueJSON{
					Backlog: r.Backlog, SwitchMs: ms(r.SwitchDuration), DrainMs: ms(r.DrainTime),
				})
			}
			return nil
		})
	}
	if want("ablation-matrix") {
		run("Ablation C (switch matrix)", func() error {
			rs, err := experiments.RunSwitchMatrix(40, *seed)
			if err != nil {
				return err
			}
			experiments.PrintSwitchMatrix(os.Stdout, rs)
			for _, r := range rs {
				rep.AblationMatrix = append(rep.AblationMatrix, matrixJSON{
					From: r.From, To: r.To, SwitchMs: ms(r.SwitchDuration),
					BaselineMs: ms(r.BaselineAvg), DuringMs: ms(r.DuringAvg),
				})
			}
			return nil
		})
	}
	if want("throughput") {
		run("Throughput probe (batched vs unbatched)", func() error {
			msgs := 10000
			if *quick {
				msgs = 2000
			}
			tp, err := throughputProbe(msgs, *seed)
			if err != nil {
				return err
			}
			fmt.Printf("n=%d payload=%dB messages=%d\n", tp.N, tp.PayloadBytes, tp.Messages)
			fmt.Printf("%12s %14.0f msg/s\n", "unbatched", tp.UnbatchedMsgsPerSec)
			fmt.Printf("%12s %14.0f msg/s  (WithBatching %dµs / %dB)\n",
				"batched", tp.BatchedMsgsPerSec, tp.BatchMaxDelayUs, tp.BatchMaxBytes)
			rep.Throughput = tp
			return nil
		})
	}

	if want("syscall-batch") {
		run("Syscall batching probe (sendmmsg/recvmmsg vs fallback)", func() error {
			msgs := 10000
			if *quick {
				msgs = 2000
			}
			sb, err := syscallBatchProbe(msgs, *seed)
			if err != nil {
				return err
			}
			fmt.Printf("n=%d payload=%dB messages=%d backend=%v\n",
				sb.N, sb.PayloadBytes, sb.Messages, sb.BackendAvailable)
			p := func(name string, r syscallBatchRunJSON) {
				fmt.Printf("%12s %14.0f msg/s  %7d sendcalls / %7d sent, %7d recvcalls / %7d delivered  (%.3f syscalls/msg)\n",
					name, r.MsgsPerSec, r.SendCalls, r.Sent, r.RecvCalls, r.Delivered, r.SyscallsPerMessage)
			}
			p("batched", sb.Batched)
			p("fallback", sb.Fallback)
			fmt.Printf("%12s %13.1f%% syscalls saved, %+.1f%% throughput\n", "", sb.SyscallsSavedPct, sb.ThroughputGainPct)
			rep.SyscallBatch = sb
			return nil
		})
	}
	if want("stream") {
		run("Stream transport probe (UDP vs TCP across the datagram ceiling)", func() error {
			sj, err := streamProbe(*quick, *seed)
			if err != nil {
				return err
			}
			fmt.Printf("n=%d datagram_max=%dB\n", sj.N, sj.DatagramMax)
			for _, pt := range sj.Points {
				udp := "   (exceeds datagram)"
				if pt.UDPDeliverable {
					udp = fmt.Sprintf("%8.0f msg/s %7.1f MB/s", pt.UDPMsgsPerSec, pt.UDPMBPerSec)
				}
				fmt.Printf("%9dB  udp %s   tcp %8.0f msg/s %7.1f MB/s  (%d fragments)\n",
					pt.PayloadBytes, udp, pt.TCPMsgsPerSec, pt.TCPMBPerSec, pt.TCPFragments)
			}
			rep.Stream = sj
			return nil
		})
	}
	if want("parallel") {
		run("Parallel executor probe (pool vs dedicated)", func() error {
			msgs := 10000
			if *quick {
				msgs = 2000
			}
			pp, err := parallelProbe(msgs, *seed)
			if err != nil {
				return err
			}
			fmt.Printf("n=%d payload=%dB messages=%d GOMAXPROCS=%d\n",
				pp.N, pp.PayloadBytes, pp.Messages, pp.GOMAXPROCS)
			fmt.Printf("%12s %14.0f msg/s\n", "dedicated", pp.DedicatedMsgsPerSec)
			fmt.Printf("%12s %14.0f msg/s  (%+.1f%%)\n", "pooled", pp.PooledMsgsPerSec, pp.SpeedupPct)
			rep.Parallel = pp
			return nil
		})
	}

	if want("membership") {
		run("Membership churn probe (join/evict)", func() error {
			rounds := 20
			if *quick {
				rounds = 5
			}
			mj, err := membershipProbe(rounds, *seed)
			if err != nil {
				return err
			}
			fmt.Printf("n=%d joins=%d evictions=%d\n", mj.N, mj.Joins, mj.Evictions)
			fmt.Printf("%12s %10.2f ms (confirmed AddNode)\n", "join", mj.JoinMs)
			fmt.Printf("%12s %10.2f ms (confirmed Evict)\n", "evict", mj.EvictMs)
			rep.Membership = mj
			return nil
		})
	}

	if *scenario != "" {
		scs, err := resolveScenarios(*scenario)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(2)
		}
		// The corpus files commit their own seeds; -seed overrides only
		// when set explicitly on the command line.
		var seedOverride *int64
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				seedOverride = seed
			}
		})
		for _, sc := range scs {
			sc := sc
			policy := "manual"
			if sc.Adaptive != nil {
				policy = sc.Adaptive.Policy + " policy"
			}
			label := fmt.Sprintf("Scenario %s (%s, initial %s, %d nodes)", sc.Name, policy, sc.Initial, sc.Nodes)
			if *transportFlag != "" {
				label += " over " + *transportFlag
			}
			run(label, func() error {
				sj, err := runScenario(os.Stdout, sc, seedOverride, *transportFlag)
				if err != nil {
					return err
				}
				rep.Scenarios = append(rep.Scenarios, *sj)
				return nil
			})
		}
	}

	if *jsonOut {
		rep.Counters = metrics.Counters()
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "encoding report: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *outPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *outPath)
	}
}
