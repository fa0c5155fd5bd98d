package dpu

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/simnet"
	"repro/internal/vclock"
)

// AdaptivePolicy decides, from sampled runtime signals, which
// atomic-broadcast protocol the group should be running. The bundled
// policies are LossSensitivePolicy and LatencySensitivePolicy; custom
// ones implement internal/policy.Policy (threshold dead bands
// recommended — see docs/ADAPTIVE.md).
type AdaptivePolicy = policy.Policy

// LossSensitivePolicy switches to the consensus-based ProtocolCT when
// the estimated loss (RP2P retransmit ratio) crosses enterRatio and
// back to the leaner ProtocolSequencer when it falls below exitRatio.
// Pass 0 for the default thresholds (enter 0.05, exit 0.01).
func LossSensitivePolicy(enterRatio, exitRatio float64) AdaptivePolicy {
	return policy.LossSensitive{
		LossyProtocol: ProtocolCT, CleanProtocol: ProtocolSequencer,
		EnterRatio: enterRatio, ExitRatio: exitRatio,
	}
}

// LatencySensitivePolicy switches to the few-hop ProtocolSequencer
// when the smoothed ack round-trip time crosses enterRTT and back to
// the uniform ProtocolCT when it falls below exitRTT. Pass 0 for the
// default thresholds (enter 8ms, exit 4ms — calibrated against the
// loaded ack RTT, which sits at 1-3ms even on a ~100µs LAN; see
// internal/policy.LatencySensitive).
func LatencySensitivePolicy(enterRTT, exitRTT time.Duration) AdaptivePolicy {
	return policy.LatencySensitive{
		SlowPathProtocol: ProtocolSequencer, FastPathProtocol: ProtocolCT,
		EnterRTT: enterRTT, ExitRTT: exitRTT,
	}
}

// adaptiveOptions is the resolved WithAdaptive configuration.
type adaptiveOptions struct {
	policy   AdaptivePolicy
	interval time.Duration
	confirm  int
	cooldown time.Duration
	advisory bool
}

// AdaptiveOption tunes WithAdaptive.
type AdaptiveOption func(*adaptiveOptions)

// AdaptiveInterval sets the signal sampling period (default 50ms).
func AdaptiveInterval(d time.Duration) AdaptiveOption {
	return func(a *adaptiveOptions) { a.interval = d }
}

// AdaptiveConfirm sets how many consecutive samples must agree on a
// target before the engine acts (default 2) — the hysteresis that
// keeps an oscillating signal from flapping the group.
func AdaptiveConfirm(n int) AdaptiveOption {
	return func(a *adaptiveOptions) { a.confirm = n }
}

// AdaptiveCooldown sets the minimum time between switches (default
// 20× the sampling interval): however fast the environment flaps, the
// group pays for at most one switch per window.
func AdaptiveCooldown(d time.Duration) AdaptiveOption {
	return func(a *adaptiveOptions) { a.cooldown = d }
}

// Advisory makes the engine report what it would switch to — through
// Node.Advise and Subscribe(Advice) — without ever switching. Run a
// new policy in advisory mode against production traffic before
// letting it act.
func Advisory() AdaptiveOption {
	return func(a *adaptiveOptions) { a.advisory = true }
}

// WithAdaptive closes the adaptation loop: a per-node engine samples
// the runtime signals latent in the stack (loss estimated from RP2P
// retransmissions, ack RTT, consensus latency, relay fan-out, delivery
// throughput), evaluates p, and — after hysteresis and cooldown —
// drives ChangeProtocolAll, so the cluster converges to the protocol
// that fits its current environment. Every decision is published as an
// Advice event (Node.Advise, Subscribe with Advice); with the Advisory
// option decisions are published but never acted on.
//
// One engine runs per Cluster — in a multi-process deployment that is
// one per node, each deciding from its local registry; concurrent
// initiations converge exactly like concurrent manual ChangeProtocol
// calls do. See docs/ADAPTIVE.md.
func WithAdaptive(p AdaptivePolicy, opts ...AdaptiveOption) Option {
	return func(o *options) {
		a := &adaptiveOptions{policy: p}
		for _, opt := range opts {
			opt(a)
		}
		o.adaptive = a
	}
}

// Advice is one adaptation decision: the switch the engine performed
// (Acted true), or — in advisory mode — the switch it would have
// performed. Decisions that merely confirm the current protocol are
// not emitted.
type Advice struct {
	At time.Time
	// Policy is the deciding policy's name.
	Policy string
	// Current is the protocol the decision was made against; Target is
	// the protocol the policy wants. In advisory mode Current follows
	// the advice trail, so the stream mirrors the switch sequence an
	// active engine would have produced.
	Current string
	Target  string
	// Reason is the policy's operator-facing explanation.
	Reason string
	// Acted reports whether the engine performed the switch.
	Acted bool

	// The signals behind the decision.
	Loss             float64       // estimated loss (retransmit ratio)
	AckRTT           time.Duration // smoothed RP2P ack round-trip time
	ConsensusLatency time.Duration // smoothed propose-to-decide latency
	RelayFanout      float64       // rbcast relays per received record
	DeliveryRate     float64       // totally-ordered deliveries per second
}

func publicAdvice(a policy.Advice) Advice {
	return Advice{
		At: a.At, Policy: a.Policy, Current: a.Current, Target: a.Target,
		Reason: a.Reason, Acted: a.Acted,
		Loss:             a.Signals.RetransmitRatio,
		AckRTT:           a.Signals.AckRTT,
		ConsensusLatency: a.Signals.ConsensusLatency,
		RelayFanout:      a.Signals.RelayFanout,
		DeliveryRate:     a.Signals.DeliveryRate,
	}
}

// Advise returns the engine's most recent adaptation decision; the
// zero Advice (At.IsZero()) when none has been emitted yet, and
// ErrNoAdaptive when the cluster was built without WithAdaptive.
func (n *Node) Advise() (Advice, error) {
	if err := n.c.check(n.id); err != nil {
		return Advice{}, err
	}
	if n.c.engine == nil {
		return Advice{}, fmt.Errorf("%w: enable it with WithAdaptive", ErrNoAdaptive)
	}
	last, ok := n.c.engine.Last()
	if !ok {
		return Advice{}, nil
	}
	return publicAdvice(last), nil
}

// startAdaptive wires and starts the adaptation engine. Called at the
// end of New, once every local stack runs.
func (c *Cluster) startAdaptive(a *adaptiveOptions) {
	act := func(target, reason string) error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_, err := c.ChangeProtocolAll(ctx, target)
		return err
	}
	if vclock.IsVirtual(c.clock) {
		// Under a virtual clock the engine ticks on the clock owner's
		// goroutine, and a blocking ChangeProtocolAll would deadlock: the
		// switch cannot complete until the clock steps again. Initiate
		// asynchronously instead — the switch propagates through the
		// following virtual-time events.
		act = func(target, reason string) error {
			if _, ok := c.impls.Lookup(target); !ok {
				return fmt.Errorf("%w: %q", ErrUnknownProtocol, target)
			}
			for _, s := range c.localSlots() {
				if s.st.Running() {
					s.st.Call(core.Service, core.ChangeProtocol{Protocol: target})
					return nil
				}
			}
			return fmt.Errorf("%w: no local running stack", ErrNotRunning)
		}
	}
	cfg := policy.Config{
		Policy:   a.policy,
		Interval: a.interval,
		Confirm:  a.confirm,
		Cooldown: a.cooldown,
		Advisory: a.advisory,
		Clock:    c.clock,
		Sample:   c.sampleSignals(),
		Act:      act,
		OnAdvice: func(adv policy.Advice) { c.publishAdvice(publicAdvice(adv)) },
	}
	c.engine = policy.New(cfg)
	c.engine.Start()
}

// sampleSignals returns the engine's sampler: counter deltas between
// consecutive samples become windowed rates, gauges are read directly,
// and the installed protocol comes from the lowest running local
// stack's status. The registry is process-wide, so in-process
// simulations aggregate all local stacks — the granularity a
// group-wide switch decision wants.
func (c *Cluster) sampleSignals() func() (policy.Signals, bool) {
	var (
		prev   map[string]uint64
		prevAt time.Time
	)
	return func() (policy.Signals, bool) {
		var probe *Node
		for _, s := range c.localSlots() {
			if s.st.Running() {
				probe = &Node{c: c, id: s.id}
				break
			}
		}
		if probe == nil {
			return policy.Signals{}, false
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		st, err := probe.Status(ctx)
		cancel()
		if err != nil {
			return policy.Signals{}, false
		}
		cur := metrics.Counters()
		now := c.clock.Now()
		defer func() { prev, prevAt = cur, now }()
		if prev == nil {
			return policy.Signals{}, false // first round establishes the baseline
		}
		window := now.Sub(prevAt)
		if window <= 0 {
			return policy.Signals{}, false
		}
		delta := func(name string) float64 { return float64(cur[name] - prev[name]) }
		gauges := metrics.Gauges()
		sent := delta("rp2p.packets_sent")
		received := delta("rbcast.records_received")
		s := policy.Signals{
			Protocol:         st.Protocol,
			Interval:         window,
			PacketsSent:      sent,
			AckRTT:           time.Duration(gauges["rp2p.ack_rtt_us"]) * time.Microsecond,
			ConsensusLatency: time.Duration(gauges["abcast.consensus_latency_us"]) * time.Microsecond,
			DeliveryRate:     delta("core.deliveries") / window.Seconds(),
		}
		if sent > 0 {
			s.RetransmitRatio = delta("rp2p.retransmits") / sent
		}
		if received > 0 {
			s.RelayFanout = delta("rbcast.records_relayed") / received
		}
		return s, true
	}
}

// publishAdvice fans one advice event out to every local slot's
// subscriptions (the engine decides for the whole group, so every
// locally hosted member observes the same stream).
func (c *Cluster) publishAdvice(a Advice) {
	for _, s := range c.localSlots() {
		s.publishAdvice(c, a)
	}
}

// SetLoss changes the packet loss probability of the running network
// through the cluster's fault surface; ErrUnsupported without one (see
// WithTransport). Scenario timelines use these mutators to reshape the
// environment mid-run.
func (c *Cluster) SetLoss(p float64) error {
	fi, err := c.injector()
	if err != nil {
		return err
	}
	fi.SetLoss(p)
	return nil
}

// SetDelay changes the one-way network delay at runtime: the simulated
// LAN's base latency, or the fault surface's fixed delay over an
// external transport. ErrUnsupported when neither is available.
func (c *Cluster) SetDelay(d time.Duration) error {
	if c.net != nil {
		c.net.Update(func(cfg *simnet.Config) { cfg.BaseLatency = d })
		return nil
	}
	fi, err := c.injector()
	if err != nil {
		return err
	}
	fi.SetDelay(d)
	return nil
}

// SetJitter changes the uniform random delay bound at runtime: the
// simulated LAN's jitter, or the fault surface's over an external
// transport. ErrUnsupported when neither is available.
func (c *Cluster) SetJitter(j time.Duration) error {
	if c.net != nil {
		c.net.Update(func(cfg *simnet.Config) { cfg.Jitter = j })
		return nil
	}
	fi, err := c.injector()
	if err != nil {
		return err
	}
	fi.SetJitter(j)
	return nil
}
