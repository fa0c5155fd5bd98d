package main

import (
	"time"

	"repro/dpu"
)

// Every duration, rate, window and bound of the benchmark is in this
// file. README.md explains each choice; BENCHMARK.json repeats the
// names, units, directions and bounds for the driver, and
// TestSchemaMatchesBenchmarkJSON keeps the two in step.

const (
	groupSize = 3 // stacks per cluster; the sandbox has two cores to host them on

	defaultSeed    = 42
	defaultSeconds = 20

	windowLen        = time.Second // latency and throughput are condensed per window
	discardWindows   = 2           // leading windows left out: caches, pools and RTT estimates settle
	minWindowSamples = 100         // a per-window p99 needs a sample beyond it; see README.md on tcp-ct-large

	setupCount    = 10               // cold New → warm-up → Close cycles behind setup_s, half before and half after the run
	drainDeadline = 10 * time.Second // a message undelivered by then is a failed operation

	// An open-loop run whose generator left more than lateShareInvalid
	// of its sends over lateThreshold late measured the generator, not
	// the program, and is printed as invalid.
	lateThreshold    = 10 * time.Millisecond
	lateShareInvalid = 0.05

	// The failure detector of the no-fault workloads: a host stall must
	// not inject a false suspicion into a throughput figure.
	fdInterval = 50 * time.Millisecond
	fdTimeout  = 2 * time.Second

	udpSocketBuffer = 4 << 20
	batchDelay      = 500 * time.Microsecond // WithBatching of the workloads that batch
	batchBytes      = 32 << 10
	ballastBytes    = 64 << 20 // see heapBallast
	subBuffer       = 1 << 13  // Subscription buffer; a drop fails the audit
	openLoopWindow  = 1 << 14  // WithMaxOutstanding of open-loop runs: never the limit

	tailOutstanding = 3 // messages in flight while a closed-loop workload's switch tail runs

	// The ladder is count-based so allocations compare across rungs.
	ladderWarmup   = 5000
	ladderMessages = 50000
	ladderChunks   = 5 // the measured messages are timed in this many floods; the fastest counts
	ladderWindow   = 64
	ladderPayload  = 256

	// vt-replay: virtual seconds of each of its four phases per wall
	// second asked for, so that the replays take about --seconds in all.
	vtPhaseShare   = 0.25
	vtReplays      = 5
	vtRatePerStack = 500 // msgs/s per sender, virtual
	vtLoss         = 0.02
	vtSwitches     = 10
)

type fabricKind int

const (
	fabricUDP     fabricKind = iota // batched UDP backend over the host loopback
	fabricTCP                       // stream backend over the host loopback
	fabricSim                       // dpu.New's default simulated LAN on the wall clock
	fabricVirtual                   // the same simulated LAN under vclock.Virtual
)

func (k fabricKind) String() string {
	return [...]string{
		"real UDP sockets over the host loopback",
		"real TCP sockets over the host loopback",
		"simulated LAN (100µs±50µs, 100 Mb/s) on the wall clock",
		"simulated LAN (100µs±50µs, 100 Mb/s) in virtual time",
	}[k]
}

// workloadSpec is one row of the workload table.
type workloadSpec struct {
	name     string
	why      string
	fabric   fabricKind
	protocol string
	payload  int     // bytes handed to Node.Broadcast
	rate     float64 // open loop: msgs/s over all senders on an absolute schedule; 0 = closed loop
	window   int     // closed loop: WithMaxOutstanding per sender
	warmup   int     // messages of one setup cycle
	oneCPU   bool    // confine the process to one CPU while it runs (see confine)
	batching bool    // dpu.WithBatching(batchDelay, batchBytes)

	// Switching, always with the load running. A storm switches through
	// the whole measured interval: every switchEvery one sender emits
	// burst back-to-back messages, so there is an undelivered set to
	// reissue, and the harness calls ChangeProtocolAll with the next
	// protocol of cycle. The closed-loop workloads keep their measured
	// interval free of switches (one every 250 ms halves the seq flood)
	// and switch in two tails, one before and one after it: tailSwitches
	// replacements in all of the protocol by itself, the paper's Figure
	// 5, tailGap apart, under light load (tailOutstanding).
	burst        int
	switchEvery  time.Duration
	cycle        []string
	tailSwitches int
	tailGap      time.Duration
}

var workloads = []workloadSpec{
	{
		name:   "udp-seq-small",
		why:    "256 B over abcast/seq on UDP loopback, closed loop 3x64: per-packet cost in transport, udp, wire, rp2p, kernel dominates; consensus idle",
		fabric: fabricUDP, protocol: dpu.ProtocolSequencer, payload: 256, window: 64, warmup: 1000, oneCPU: true,
		tailSwitches: 200, tailGap: 10 * time.Millisecond,
	},
	{
		name:   "udp-ct-small",
		why:    "256 B over abcast/ct with WithBatching(500us, 32 KiB) on UDP loopback, closed loop 3x16: consensus, rbcast and ct dominate; a transport gain moves it far less",
		fabric: fabricUDP, protocol: dpu.ProtocolCT, payload: 256, window: 16, warmup: 1000, oneCPU: true, batching: true,
		tailSwitches: 200, tailGap: 10 * time.Millisecond,
	},
	{
		name:   "tcp-ct-large",
		why:    "128 KiB over abcast/ct on TCP loopback, closed loop 3x2: bytes not packets - fragmentation, CRC, copies; idle in the 256-B workloads",
		fabric: fabricTCP, protocol: dpu.ProtocolCT, payload: 128 << 10, window: 2, warmup: 12, oneCPU: true,
		tailSwitches: 50, tailGap: 20 * time.Millisecond,
	},
	{
		name:   "sim-switch-storm",
		why:    "512 B open loop 1500/s on the simulated LAN, a 200-message burst then a switch every 200 ms (ct, seq, token): core.Repl does its real work; timer-bound",
		fabric: fabricSim, protocol: dpu.ProtocolCT, payload: 512, rate: 1500, warmup: 1000,
		burst: 200, switchEvery: 200 * time.Millisecond,
		cycle: []string{dpu.ProtocolSequencer, dpu.ProtocolToken, dpu.ProtocolCT},
	},
	{
		name:   "vt-replay",
		why:    "virtual time, 3x500/s of 256 B: clean ct, 2% loss, ten switches, clean seq, replayed 5x: protocol latency in LAN hops, loss recovery, exact counts; immune to the host",
		fabric: fabricVirtual, protocol: dpu.ProtocolCT, payload: 256, warmup: 1000, oneCPU: true,
		cycle: []string{dpu.ProtocolSequencer, dpu.ProtocolToken, dpu.ProtocolCT},
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricSpec names one reported metric. bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics carry none.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd lists what an application embedding dpu feels. Every
// workload reports every one of them (README.md says how each workload
// comes by its switch and latency figures).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_msgs_s", "msgs/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"switch_ms_p50", "ms", "lower", 0.25},
}
