package policy

import (
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/vclock"
)

// Signals is one sample of the stack's runtime condition, assembled by
// the embedding layer (see dpu's sampler) from the process-wide metrics
// registry and the replacement layer's status.
type Signals struct {
	// Protocol is the atomic-broadcast protocol the decision is made
	// against: the installed one in active mode, the engine's assumed
	// one in advisory mode (see Engine).
	Protocol string
	// Interval is the window the windowed rates below cover.
	Interval time.Duration
	// PacketsSent is how many RP2P data packets the window covers
	// ("rp2p.packets_sent" delta). Zero means the window carried no
	// traffic to measure — RetransmitRatio is then no information, not
	// a clean path, and policies must hold position.
	PacketsSent float64
	// RetransmitRatio estimates loss: RP2P retransmissions per data
	// packet transmitted in the window ("rp2p.retransmits" over
	// "rp2p.packets_sent"). ~0 on a clean path; approaches the true
	// loss rate under random loss and exceeds it under partitions.
	// Meaningless when PacketsSent is 0.
	RetransmitRatio float64
	// AckRTT is the smoothed RP2P acknowledgement round-trip time
	// ("rp2p.ack_rtt_us"), the stack's view of path latency.
	AckRTT time.Duration
	// ConsensusLatency is the smoothed propose-to-decide latency of
	// consensus instances ("abcast.consensus_latency_us"); zero when no
	// consensus-based protocol is (or recently was) installed.
	ConsensusLatency time.Duration
	// RelayFanout is the rbcast relay amplification in the window:
	// relayed records per received record ("rbcast.records_relayed"
	// over "rbcast.records_received").
	RelayFanout float64
	// DeliveryRate is totally-ordered deliveries per second in the
	// window ("core.deliveries").
	DeliveryRate float64
}

// Decision is a policy's verdict on one sample.
type Decision struct {
	// Target is the protocol the policy wants installed. Empty or equal
	// to Signals.Protocol means "stay".
	Target string
	// Reason is a short operator-facing explanation.
	Reason string
}

// Policy maps a sample of runtime signals to a desired protocol.
// Policies are evaluated on the engine's sampling goroutine and must
// not block; they should carry their own enter/exit thresholds so the
// dead band between them damps chatter at the signal level.
type Policy interface {
	Name() string
	Evaluate(Signals) Decision
}

// Advice is one emitted adaptation decision: a performed switch in
// active mode, or what the engine would have done in advisory mode.
type Advice struct {
	Seq     uint64 // 1-based emission counter per engine
	At      time.Time
	Policy  string
	Current string // protocol the decision was made against
	Target  string
	Reason  string
	Signals Signals
	Acted   bool // true when the engine performed the switch
}

// Config parameterises an Engine.
type Config struct {
	// Policy is the decision maker. Required.
	Policy Policy
	// Interval is the sampling period (default 50ms).
	Interval time.Duration
	// Confirm is how many consecutive samples must agree on the same
	// target before the engine acts (default 2). This is the engine's
	// hysteresis: a signal oscillating across a policy threshold never
	// produces a switch.
	Confirm int
	// Cooldown is the minimum time between emitted decisions (default
	// 20×Interval). Confirmed targets arriving inside the window are
	// suppressed and must re-confirm after it expires.
	Cooldown time.Duration
	// Advisory, when true, makes the engine emit Advice without ever
	// calling Act. The engine then evaluates against the protocol its
	// own advice trail implies, so the advice stream matches the switch
	// sequence an active engine would have produced.
	Advisory bool
	// Sample produces one Signals snapshot. Returning ok=false skips
	// the round (e.g. the stack is mid-shutdown). Required.
	Sample func() (s Signals, ok bool)
	// Act performs the switch in active mode. Required unless Advisory.
	Act func(target, reason string) error
	// OnAdvice, when non-nil, receives every emitted Advice (in both
	// modes), on the engine goroutine.
	OnAdvice func(Advice)
	// Clock schedules the sampling ticks and timestamps decisions. Nil
	// means the wall clock; a vclock.Virtual makes the adaptation loop
	// deterministic under simulated time.
	Clock vclock.Clock
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 50 * time.Millisecond
	}
	if c.Confirm <= 0 {
		c.Confirm = 2
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 20 * c.Interval
	}
	if c.Clock == nil {
		c.Clock = vclock.Wall
	}
	return c
}

// Engine counters, exposed through the process-wide metrics registry.
var (
	ctrSamples    = metrics.NewCounter("policy.samples")
	ctrAdvice     = metrics.NewCounter("policy.advice")
	ctrSwitches   = metrics.NewCounter("policy.switches")
	ctrSwitchErrs = metrics.NewCounter("policy.switch_errors")
	ctrHysteresis = metrics.NewCounter("policy.suppressed_hysteresis")
	ctrCooldown   = metrics.NewCounter("policy.suppressed_cooldown")
)

// Engine is the adaptation loop: sample → evaluate → confirm → act (or
// advise). One engine runs per node, paced by a self-rearming timer on
// Config.Clock. Under a virtual clock the tick runs inside the timer
// callback, so the ticks are ordinary scheduled events and the whole
// adaptation trajectory is deterministic. On wall time the callback only
// wakes the engine's own goroutine, which runs the tick: Sample waits
// for a stack and Act for a whole protocol switch, and the clock's pacer
// fires every other wall-clock timer in the process — the ones the
// switch itself waits for among them.
type Engine struct {
	cfg Config

	// Decision state, touched only under runMu (ticks, or tests driving
	// step directly).
	pendingTarget string
	pendingCount  int
	lastDecision  time.Time
	assumed       string // advisory mode: protocol the advice trail implies

	mu   sync.Mutex
	last Advice
	seq  uint64

	runMu   sync.Mutex // serializes ticks against each other and Stop
	timerMu sync.Mutex
	timer   vclock.Timer
	wake    chan struct{} // wall time: the timer's signal to the engine goroutine
	quit    chan struct{} // wall time: closed by Stop
	done    chan struct{} // wall time: closed when the engine goroutine exits
	started bool
	stopped bool
}

// New validates the configuration and returns an unstarted engine.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	if cfg.Policy == nil {
		panic("policy: Config.Policy is required")
	}
	if cfg.Sample == nil {
		panic("policy: Config.Sample is required")
	}
	if cfg.Act == nil && !cfg.Advisory {
		panic("policy: Config.Act is required in active mode")
	}
	return &Engine{cfg: cfg}
}

// Start arms the sampling loop. Safe to call once.
func (e *Engine) Start() {
	e.timerMu.Lock()
	defer e.timerMu.Unlock()
	if e.started || e.stopped {
		return
	}
	e.started = true
	if vclock.IsVirtual(e.cfg.Clock) {
		e.timer = e.cfg.Clock.AfterFunc(e.cfg.Interval, e.tick)
		return
	}
	e.wake = make(chan struct{}, 1)
	e.quit = make(chan struct{})
	e.done = make(chan struct{})
	go e.loop()
	e.timer = e.cfg.Clock.AfterFunc(e.cfg.Interval, e.signal)
}

// signal is the wall-time timer callback: it wakes the engine goroutine
// and returns at once.
func (e *Engine) signal() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// loop is the engine goroutine on wall time: one tick per signal.
func (e *Engine) loop() {
	defer close(e.done)
	for {
		select {
		case <-e.wake:
			e.tick()
		case <-e.quit:
			return
		}
	}
}

// Stop halts the loop and waits for any in-flight tick to finish. Safe
// to call more than once and before Start; not from Act or OnAdvice.
func (e *Engine) Stop() {
	e.timerMu.Lock()
	if e.stopped {
		e.timerMu.Unlock()
		return
	}
	e.stopped = true
	if e.timer != nil {
		e.timer.Stop()
	}
	e.timerMu.Unlock()
	if e.quit != nil {
		close(e.quit)
		<-e.done
	}
	// An already-running tick holds runMu; taking it drains the tick.
	e.runMu.Lock()
	e.runMu.Unlock() //nolint:staticcheck // empty section is the join
}

// Last returns the most recently emitted advice; ok is false before
// the first emission.
func (e *Engine) Last() (Advice, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.last, e.last.Seq > 0
}

// tick runs one sampling round and rearms the timer.
func (e *Engine) tick() {
	e.runMu.Lock()
	e.timerMu.Lock()
	stopped := e.stopped
	e.timerMu.Unlock()
	if !stopped {
		if s, ok := e.cfg.Sample(); ok {
			e.step(e.cfg.Clock.Now(), s)
		}
	}
	e.runMu.Unlock()
	e.timerMu.Lock()
	if !e.stopped {
		e.timer.Reset(e.cfg.Interval)
	}
	e.timerMu.Unlock()
}

// step runs one evaluation round. Split from run so the unit suite can
// drive the decision machinery with synthetic clocks and signals.
func (e *Engine) step(now time.Time, s Signals) {
	ctrSamples.Add(1)
	if e.cfg.Advisory && e.assumed != "" {
		// Evaluate against the protocol the advice trail implies, so an
		// advisory engine's stream mirrors the switches an active one
		// would have made instead of re-advising the same move forever.
		s.Protocol = e.assumed
	}
	d := e.cfg.Policy.Evaluate(s)
	if d.Target == "" || d.Target == s.Protocol {
		e.pendingTarget, e.pendingCount = "", 0
		return
	}
	if d.Target != e.pendingTarget {
		e.pendingTarget, e.pendingCount = d.Target, 1
	} else {
		e.pendingCount++
	}
	if e.pendingCount < e.cfg.Confirm {
		ctrHysteresis.Add(1)
		return
	}
	if !e.lastDecision.IsZero() && now.Sub(e.lastDecision) < e.cfg.Cooldown {
		// Suppressed: drop the streak, so the target must re-confirm
		// with fresh samples once the window expires (as Config.Cooldown
		// documents) instead of firing on the first post-window tick.
		e.pendingTarget, e.pendingCount = "", 0
		ctrCooldown.Add(1)
		return
	}
	e.pendingTarget, e.pendingCount = "", 0
	e.lastDecision = now
	adv := Advice{
		At: now, Policy: e.cfg.Policy.Name(),
		Current: s.Protocol, Target: d.Target, Reason: d.Reason,
		Signals: s,
	}
	if e.cfg.Advisory {
		e.assumed = d.Target
	} else {
		if err := e.cfg.Act(d.Target, d.Reason); err != nil {
			ctrSwitchErrs.Add(1)
			return
		}
		ctrSwitches.Add(1)
		adv.Acted = true
	}
	ctrAdvice.Add(1)
	e.mu.Lock()
	e.seq++
	adv.Seq = e.seq
	e.last = adv
	e.mu.Unlock()
	if e.cfg.OnAdvice != nil {
		e.cfg.OnAdvice(adv)
	}
}
