package policy

import (
	"sync"
	"testing"
	"time"

	"repro/internal/vclock"
)

// lossy/clean signal helpers against the default LossSensitive
// thresholds (enter 0.05, exit 0.01).
func lossySignal(current string) Signals {
	return Signals{Protocol: current, PacketsSent: 500, RetransmitRatio: 0.20, Interval: 50 * time.Millisecond}
}

func cleanSignal(current string) Signals {
	return Signals{Protocol: current, PacketsSent: 500, RetransmitRatio: 0.0, Interval: 50 * time.Millisecond}
}

func deadBandSignal(current string) Signals {
	return Signals{Protocol: current, PacketsSent: 500, RetransmitRatio: 0.03, Interval: 50 * time.Millisecond}
}

// recorder captures Act calls and emitted advice.
type recorder struct {
	mu     sync.Mutex
	acts   []string
	advice []Advice
}

func (r *recorder) act(target, _ string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.acts = append(r.acts, target)
	return nil
}

func (r *recorder) onAdvice(a Advice) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.advice = append(r.advice, a)
}

func (r *recorder) actTargets() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.acts...)
}

func (r *recorder) adviceTargets() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.advice))
	for i, a := range r.advice {
		out[i] = a.Target
	}
	return out
}

func newTestEngine(t *testing.T, cfg Config) (*Engine, *recorder) {
	t.Helper()
	rec := &recorder{}
	if cfg.Policy == nil {
		cfg.Policy = NewLossSensitive("ct", "seq")
	}
	if cfg.Sample == nil {
		cfg.Sample = func() (Signals, bool) { return Signals{}, false }
	}
	if cfg.Act == nil && !cfg.Advisory {
		cfg.Act = rec.act
	}
	cfg.OnAdvice = rec.onAdvice
	return New(cfg), rec
}

func equalSeq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestHysteresisPreventsFlapping drives an oscillating signal that
// crosses the enter threshold every other sample: with Confirm=2 no
// target is ever confirmed twice in a row, so the engine never
// switches, however long the oscillation lasts.
func TestHysteresisPreventsFlapping(t *testing.T) {
	e, rec := newTestEngine(t, Config{Confirm: 2, Cooldown: time.Millisecond})
	now := time.Unix(0, 0)
	for i := 0; i < 100; i++ {
		s := lossySignal("seq")
		if i%2 == 1 {
			s = cleanSignal("seq")
		}
		now = now.Add(50 * time.Millisecond)
		e.step(now, s)
	}
	if got := rec.actTargets(); len(got) != 0 {
		t.Fatalf("oscillating signal produced switches: %v", got)
	}
	if got := rec.adviceTargets(); len(got) != 0 {
		t.Fatalf("oscillating signal produced advice: %v", got)
	}
}

// TestConfirmThreshold verifies a sustained signal IS acted on, at
// exactly the Confirm'th consecutive agreeing sample.
func TestConfirmThreshold(t *testing.T) {
	e, rec := newTestEngine(t, Config{Confirm: 3, Cooldown: time.Millisecond})
	now := time.Unix(0, 0)
	for i := 0; i < 2; i++ {
		now = now.Add(50 * time.Millisecond)
		e.step(now, lossySignal("seq"))
		if got := rec.actTargets(); len(got) != 0 {
			t.Fatalf("switched after %d samples, want confirmation at 3", i+1)
		}
	}
	now = now.Add(50 * time.Millisecond)
	e.step(now, lossySignal("seq"))
	if got := rec.actTargets(); !equalSeq(got, []string{"ct"}) {
		t.Fatalf("acts = %v, want [ct]", got)
	}
	last, ok := e.Last()
	if !ok || last.Target != "ct" || !last.Acted {
		t.Fatalf("Last() = %+v, %v; want acted advice for ct", last, ok)
	}
}

// TestCooldownSuppressesBackToBack switches once, then immediately
// confirms the opposite target: the engine must sit out the cooldown
// window before switching back.
func TestCooldownSuppressesBackToBack(t *testing.T) {
	e, rec := newTestEngine(t, Config{Confirm: 1, Cooldown: time.Minute})
	now := time.Unix(0, 0)

	now = now.Add(time.Second)
	e.step(now, lossySignal("seq"))
	if got := rec.actTargets(); !equalSeq(got, []string{"ct"}) {
		t.Fatalf("acts = %v, want [ct]", got)
	}

	// Back-to-back reversal inside the cooldown window: suppressed.
	for i := 0; i < 10; i++ {
		now = now.Add(time.Second)
		e.step(now, cleanSignal("ct"))
	}
	if got := rec.actTargets(); !equalSeq(got, []string{"ct"}) {
		t.Fatalf("cooldown did not suppress: acts = %v", got)
	}

	// After the window the target goes through again (Confirm=1, so one
	// fresh sample suffices).
	now = now.Add(2 * time.Minute)
	e.step(now, cleanSignal("ct"))
	if got := rec.actTargets(); !equalSeq(got, []string{"ct", "seq"}) {
		t.Fatalf("acts after cooldown = %v, want [ct seq]", got)
	}
}

// TestCooldownResetsConfirmationStreak pins the re-confirmation
// contract: a target suppressed by the cooldown loses its streak and
// must win Confirm FRESH samples after the window expires — it cannot
// fire on the first post-window tick off samples gathered inside it.
func TestCooldownResetsConfirmationStreak(t *testing.T) {
	e, rec := newTestEngine(t, Config{Confirm: 2, Cooldown: time.Minute})
	now := time.Unix(0, 0)
	step := func(s Signals, d time.Duration) {
		now = now.Add(d)
		e.step(now, s)
	}
	step(lossySignal("seq"), time.Second)
	step(lossySignal("seq"), time.Second) // confirmed -> acts
	if got := rec.actTargets(); !equalSeq(got, []string{"ct"}) {
		t.Fatalf("acts = %v, want [ct]", got)
	}
	// Confirm and re-confirm the reversal inside the window: suppressed,
	// streak dropped each time.
	for i := 0; i < 6; i++ {
		step(cleanSignal("ct"), time.Second)
	}
	// First post-window sample alone must NOT act (streak was reset)...
	step(cleanSignal("ct"), 2*time.Minute)
	if got := rec.actTargets(); !equalSeq(got, []string{"ct"}) {
		t.Fatalf("acted on first post-cooldown sample: %v", got)
	}
	// ...the Confirm'th fresh one does.
	step(cleanSignal("ct"), time.Second)
	if got := rec.actTargets(); !equalSeq(got, []string{"ct", "seq"}) {
		t.Fatalf("acts = %v, want [ct seq]", got)
	}
}

// TestAdvisoryNeverActs runs a loss ramp through an advisory engine:
// the advice stream must match the switch sequence an active engine
// would produce — [ct seq] — with Act never called (it would panic:
// nil func).
func TestAdvisoryNeverActs(t *testing.T) {
	e, rec := newTestEngine(t, Config{Confirm: 2, Cooldown: time.Millisecond, Advisory: true})
	now := time.Unix(0, 0)
	step := func(s Signals) {
		now = now.Add(50 * time.Millisecond)
		e.step(now, s)
	}
	// Lossy phase: the installed protocol never changes (nothing acts),
	// so every sample reports current=seq.
	for i := 0; i < 10; i++ {
		step(lossySignal("seq"))
	}
	// Recovery phase.
	for i := 0; i < 10; i++ {
		step(cleanSignal("seq"))
	}
	if got := rec.adviceTargets(); !equalSeq(got, []string{"ct", "seq"}) {
		t.Fatalf("advisory advice = %v, want [ct seq]", got)
	}
	for _, a := range rec.advice {
		if a.Acted {
			t.Fatalf("advisory advice marked acted: %+v", a)
		}
	}
	if got := rec.actTargets(); len(got) != 0 {
		t.Fatalf("advisory engine called Act: %v", got)
	}
}

// TestDeadBandHoldsCurrent: between exit and enter thresholds both
// built-in policies vote to stay with whatever is installed.
func TestDeadBandHoldsCurrent(t *testing.T) {
	loss := NewLossSensitive("ct", "seq")
	for _, cur := range []string{"ct", "seq"} {
		if d := loss.Evaluate(deadBandSignal(cur)); d.Target != cur {
			t.Fatalf("loss dead band moved %s -> %s (%s)", cur, d.Target, d.Reason)
		}
	}
	lat := NewLatencySensitive("seq", "ct")
	mid := Signals{Protocol: "ct", AckRTT: 6 * time.Millisecond}
	if d := lat.Evaluate(mid); d.Target != "ct" {
		t.Fatalf("latency dead band moved ct -> %s (%s)", d.Target, d.Reason)
	}
	unmeasured := Signals{Protocol: "seq", AckRTT: 0}
	if d := lat.Evaluate(unmeasured); d.Target != "seq" {
		t.Fatalf("unmeasured RTT moved seq -> %s (%s)", d.Target, d.Reason)
	}
}

// TestPolicyThresholds pins the built-in policies' decisions on either
// side of their thresholds.
func TestPolicyThresholds(t *testing.T) {
	loss := NewLossSensitive("ct", "seq")
	if d := loss.Evaluate(Signals{Protocol: "seq", PacketsSent: 100, RetransmitRatio: 0.06}); d.Target != "ct" {
		t.Fatalf("ratio 0.06: target %s, want ct", d.Target)
	}
	if d := loss.Evaluate(Signals{Protocol: "ct", PacketsSent: 100, RetransmitRatio: 0.005}); d.Target != "seq" {
		t.Fatalf("ratio 0.005: target %s, want seq", d.Target)
	}
	// An idle window measures nothing: hold position, do not mistake
	// "no traffic" for "clean path".
	if d := loss.Evaluate(Signals{Protocol: "ct", PacketsSent: 0, RetransmitRatio: 0}); d.Target != "ct" {
		t.Fatalf("idle window moved ct -> %s (%s)", d.Target, d.Reason)
	}
	lat := NewLatencySensitive("seq", "ct")
	if d := lat.Evaluate(Signals{Protocol: "ct", AckRTT: 9 * time.Millisecond}); d.Target != "seq" {
		t.Fatalf("rtt 9ms: target %s, want seq", d.Target)
	}
	if d := lat.Evaluate(Signals{Protocol: "seq", AckRTT: 300 * time.Microsecond}); d.Target != "ct" {
		t.Fatalf("rtt 300µs: target %s, want ct", d.Target)
	}
}

// TestEngineLifecycle exercises the real sampling loop end to end: a
// live engine samples, confirms and acts, and Stop joins cleanly (and
// is idempotent, including before Start).
func TestEngineLifecycle(t *testing.T) {
	var mu sync.Mutex
	current := "seq"
	rec := &recorder{}
	e := New(Config{
		Policy:   NewLossSensitive("ct", "seq"),
		Interval: 2 * time.Millisecond,
		Confirm:  2,
		Cooldown: 5 * time.Millisecond,
		Sample: func() (Signals, bool) {
			mu.Lock()
			defer mu.Unlock()
			return Signals{Protocol: current, PacketsSent: 100, RetransmitRatio: 0.5}, true
		},
		Act: func(target, reason string) error {
			mu.Lock()
			current = target
			mu.Unlock()
			return rec.act(target, reason)
		},
		OnAdvice: rec.onAdvice,
	})
	e.Start()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := rec.actTargets(); len(got) > 0 {
			if got[0] != "ct" {
				t.Fatalf("first act = %s, want ct", got[0])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("engine never acted on a sustained lossy signal")
		}
		time.Sleep(time.Millisecond)
	}
	e.Stop()
	e.Stop() // idempotent

	unstarted := New(Config{
		Policy:   NewLossSensitive("ct", "seq"),
		Advisory: true,
		Sample:   func() (Signals, bool) { return Signals{}, false },
	})
	unstarted.Stop() // must not hang without Start
}

// TestWallEngineActMayWaitForAWallTimer: on the wall clock, Act may
// block on another wall-clock timer — as ChangeProtocolAll does on the
// batch flush and the retransmission timers of the switch it waits
// for. The tick runs on the engine's own goroutine, so the pacer that
// fires every wall-clock timer keeps firing; a tick run inside the timer
// callback would deadlock here.
func TestWallEngineActMayWaitForAWallTimer(t *testing.T) {
	acted := make(chan struct{})
	var once sync.Once
	e := New(Config{
		Policy:   NewLossSensitive("ct", "seq"),
		Interval: time.Millisecond,
		Confirm:  1,
		Sample:   func() (Signals, bool) { return lossySignal("seq"), true },
		Act: func(target, reason string) error {
			fired := make(chan struct{})
			vclock.Wall.AfterFunc(time.Millisecond, func() { close(fired) })
			<-fired
			once.Do(func() { close(acted) })
			return nil
		},
	})
	e.Start()
	<-acted
	e.Stop()
}
