package dpu

import (
	"time"

	"repro/internal/abcast"
	"repro/internal/consensus"
	"repro/internal/fd"
	"repro/internal/kernel"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/vclock"
)

type options struct {
	protocol       string
	net            simnet.Config
	transport      transport.Transport
	local          []int
	grace          time.Duration
	membership     bool
	autoEvict      bool
	endpoints      map[int]string
	maxOutstanding int
	batchDelay     time.Duration
	batchBytes     int
	extraImpls     []abcast.Impl
	consVariants   []consensus.Config
	tracer         kernel.Tracer
	adaptive       *adaptiveOptions
	clock          vclock.Clock
	fd             fd.Config
	joinTimeout    time.Duration
	joinRetry      joinRetryConfig
}

// joinRetryConfig is the resolved WithJoinRetry configuration: up to
// attempts handshake tries, with capped exponential backoff between
// them. attempts 1 means a single try (no retry), the default.
type joinRetryConfig struct {
	attempts int
	base     time.Duration
	max      time.Duration
}

// Option configures New.
type Option func(*options)

// WithInitialProtocol selects the protocol installed at epoch 0
// (default ProtocolCT).
func WithInitialProtocol(name string) Option {
	return func(o *options) { o.protocol = name }
}

// WithSeed makes the simulated network's jitter and fault fates
// reproducible.
func WithSeed(seed int64) Option {
	return func(o *options) { o.net.Seed = seed }
}

// WithLatency sets the one-way network latency (default 100µs) and
// jitter (default latency/2).
func WithLatency(base, jitter time.Duration) Option {
	return func(o *options) { o.net.BaseLatency, o.net.Jitter = base, jitter }
}

// WithBandwidth models a shared medium of the given bits per second.
func WithBandwidth(bps float64) Option {
	return func(o *options) { o.net.BandwidthBps = bps }
}

// WithGrace sets how long a replaced protocol module keeps draining
// before it is removed (default 500ms).
func WithGrace(d time.Duration) Option {
	return func(o *options) { o.grace = d }
}

// WithMembership adds the group-membership module (GM in Figure 4) on
// top of the replaceable atomic broadcast. With it enabled, GM views
// drive every layer: a committed view change reconfigures rbcast
// destinations, rp2p peer state, fd monitors, consensus quorums and
// transport routes, and the cluster becomes elastic (AddNode,
// Node.Evict, ServeJoin/Join across processes).
func WithMembership() Option {
	return func(o *options) { o.membership = true }
}

// WithAutoEvict makes GM propose an eviction whenever the failure
// detector suspects a member. The proposal is ordered through the
// public atomic broadcast, so every survivor installs the identical
// view; duplicate proposals from several survivors commit as no-ops.
// Requires WithMembership.
func WithAutoEvict() Option {
	return func(o *options) { o.autoEvict = true }
}

// WithEndpoints records the transport endpoint ("host:port") of each
// founding member, so the membership layer can serve joiners a complete
// address book and admit/retire routes as views change. Typically used
// together with WithTransport over real UDP sockets; superfluous over
// the built-in simulated LAN, whose routing is implicit.
func WithEndpoints(eps map[int]string) Option {
	return func(o *options) {
		if o.endpoints == nil {
			o.endpoints = make(map[int]string, len(eps))
		}
		for id, ep := range eps {
			o.endpoints[id] = ep
		}
	}
}

// WithMaxOutstanding bounds the number of a stack's own broadcasts that
// may be in flight — issued through Node.Broadcast but not yet
// delivered back by the total order — before further Node.Broadcast
// calls block (default 1024). This is the backpressure window that
// keeps a fast producer from flooding the replacement layer's
// undelivered set.
func WithMaxOutstanding(n int) Option {
	return func(o *options) { o.maxOutstanding = n }
}

// WithBatching enables sender-side broadcast batching: the payloads a
// stack is handed to Broadcast in one executor pass are atomically
// broadcast as ONE inner message when that pass ends (earlier, once
// their packed size reaches maxBytes), amortizing one dissemination,
// one consensus slot and one ack cycle over the whole batch. Delivery
// unpacks batches transparently, preserving exactly-once and total
// order — including across a protocol switch, where a batch caught
// undelivered is reissued exactly once through the new epoch.
//
// A batch never waits for company or for a clock: a lone broadcast
// leaves at the end of its pass, and batches grow with the load on
// their own. maxDelay only turns batching on (any value > 0 does);
// no timer uses it. Batching is off by default. maxBytes <= 0 defaults
// to 32 KiB, and is capped at 48 KiB so a batch always fits one real
// UDP datagram after framing; maxDelay <= 0 with maxBytes > 0 turns
// batching on as well. See docs/PERFORMANCE.md for guidance.
func WithBatching(maxDelay time.Duration, maxBytes int) Option {
	return func(o *options) { o.batchDelay, o.batchBytes = maxDelay, maxBytes }
}

// WithConsensusVariant registers a CT atomic-broadcast variant that
// runs on its own consensus protocol instance — the paper's
// consensus-replacement extension. implName is the protocol name to
// pass to ChangeProtocol; policy selects the coordinator strategy of
// the new consensus protocol.
func WithConsensusVariant(implName string, policy consensus.CoordPolicy) Option {
	return func(o *options) {
		svc := kernel.ServiceID("consensus/" + implName)
		o.extraImpls = append(o.extraImpls, abcast.CTImplOn(implName, svc))
		o.consVariants = append(o.consVariants, consensus.Config{
			Service:    svc,
			Protocol:   "consensus@" + implName,
			Channel:    "cons@" + implName,
			DecChannel: "cons-dec@" + implName,
			Policy:     policy,
		})
	}
}

// WithTransport runs the cluster over the given datagram fabric
// instead of the built-in simulated LAN — typically a real-socket
// transport built with transport.NewUDP and a static address book, so
// stacks can live in different OS processes or on different hosts (see
// WithLocalStacks and cmd/dpu-sim's -listen/-peers mode).
//
// With an external transport the simulation-only options (WithLatency,
// WithBandwidth) no longer shape the network — real links do — and the
// cluster has a fault surface (SetLoss, PartitionLink, SetCorrupt,
// FaultStats and the rest) exactly when tr is a transport.Faulty
// decorator; without one they return ErrUnsupported. Crash still halts
// the local stack. Close closes the transport. Ownership transfers when
// New starts wiring stacks: a New that fails during the build closes
// the transport, while a configuration error caught before wiring (bad
// cluster size or local stack index, duplicate protocol name) leaves it
// open for reuse.
func WithTransport(tr transport.Transport) Option {
	return func(o *options) { o.transport = tr }
}

// WithLocalStacks restricts which of the n stacks this process hosts
// (default: all of them). The remaining addresses are expected to be
// served by other processes sharing the same transport address book.
// Cluster methods taking a stack index only accept local stacks, and
// Node handles exist only for local stacks (ErrRemoteStack otherwise).
func WithLocalStacks(ids ...int) Option {
	return func(o *options) { o.local = append(o.local, ids...) }
}

// WithTracer attaches a kernel tracer (e.g. an audit.Auditor) to every
// stack.
func WithTracer(t kernel.Tracer) Option {
	return func(o *options) { o.tracer = t }
}

// WithClock injects a time source shared by every layer of the cluster
// — kernel timers, simulated-network delivery, failure-detector
// heartbeats, the adaptation engine's sampling ticks and event
// timestamps. The default is the wall clock. Passing a
// vclock.NewVirtual() puts the whole cluster on discrete-event virtual
// time: nothing advances until the owner of the virtual clock steps it,
// which is how internal/scenario runs large groups and long timelines
// deterministically in milliseconds of real time. Requires the built-in
// simulated network (the clock cannot slow down real sockets).
func WithClock(c vclock.Clock) Option {
	return func(o *options) { o.clock = c }
}

// WithJoinTimeout bounds each leg of the TCP join handshake (the
// joiner's dial+exchange in Join, and the per-connection service in
// ServeJoin). The default is 60s. A ctx deadline shorter than the
// timeout wins. d <= 0 keeps the default.
func WithJoinTimeout(d time.Duration) Option {
	return func(o *options) {
		if d > 0 {
			o.joinTimeout = d
		}
	}
}

// WithJoinRetry makes Join retry a failed handshake up to attempts
// times in total, so a restarting process rides out a briefly-dead
// sponsor. Between tries it backs off exponentially from base, capped
// at max, with seeded jitter (each wait is uniform in [d/2, d)); the
// waits run on the injected clock and abort when ctx is cancelled.
// Only transport-level failures (connection refused, reset, a sponsor
// dying mid-handshake) are retried — a sponsor that answers with a
// refusal fails immediately. attempts < 1 means 1; base <= 0 defaults
// to 100ms; max < base is raised to base.
func WithJoinRetry(attempts int, base, max time.Duration) Option {
	return func(o *options) {
		if attempts < 1 {
			attempts = 1
		}
		if base <= 0 {
			base = 100 * time.Millisecond
		}
		if max < base {
			max = base
		}
		o.joinRetry = joinRetryConfig{attempts: attempts, base: base, max: max}
	}
}

// WithFailureDetector tunes the heartbeat failure detector: interval is
// the heartbeat/check period, timeout the silence threshold before
// suspicion (zero keeps each default). Large simulated groups raise the
// interval so heartbeat traffic does not dominate the event schedule.
func WithFailureDetector(interval, timeout time.Duration) Option {
	return func(o *options) { o.fd.Interval, o.fd.Timeout = interval, timeout }
}
