package dpu

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/vclock"
)

// adaptiveTestOpts builds the cluster options shared by the scenario
// tests: a seeded simnet, the sequencer installed (the clean-path
// protocol of the loss-sensitive policy), and a tight engine so the
// tests converge in seconds.
func adaptiveTestOpts(extra ...AdaptiveOption) []Option {
	aopts := append([]AdaptiveOption{
		AdaptiveInterval(20 * time.Millisecond),
		AdaptiveConfirm(2),
		AdaptiveCooldown(250 * time.Millisecond),
	}, extra...)
	return []Option{
		WithSeed(7),
		WithInitialProtocol(ProtocolSequencer),
		WithAdaptive(LossSensitivePolicy(0, 0), aopts...),
	}
}

// pump broadcasts continuously from every node so the loss estimate
// (retransmit ratio) has traffic to measure, until stop is closed.
func pump(t *testing.T, c *Cluster, n int, stop <-chan struct{}) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		node, err := c.Node(i)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() { <-stop; cancel() }()
			payload := []byte("adaptive-workload")
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := node.Broadcast(ctx, payload); err != nil {
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	return &wg
}

// TestAdaptiveLossRampSwitchSequence is the acceptance scenario: under
// a scripted loss ramp in simnet, the controller must switch to the
// loss-tolerant protocol during the lossy phase and back to the lean
// one after recovery — the ordered sequence of SwitchEvents is exactly
// [ProtocolCT, ProtocolSequencer] — and then hold still.
//
// It runs in virtual time. On wall time the stamps of two packets sent
// in one executor pass differ by nanoseconds, so when the fabric's
// jitter lets the second overtake the first, rp2p's overtaken-packet
// rule resends the first although it is only late. Such resends make
// nearly all the retransmissions of a clean link, and a burst of them
// lifts the retransmit ratio to 0.3 for two samples in a row — over
// the policy's threshold — so on wall time the controller sometimes
// flapped back to ct after recovery. Under a virtual clock the
// schedule, and with it every retransmission, is a function of the
// seed.
func TestAdaptiveLossRampSwitchSequence(t *testing.T) {
	vc := vclock.NewVirtual()
	// A window as large as the ticks one sender can issue: Broadcast
	// then never blocks the clock's owner, which would deadlock the run.
	c, err := New(3, append(adaptiveTestOpts(), WithClock(vc), WithMaxOutstanding(1<<13))...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	node0, err := c.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := node0.Subscribe(SubscribeOptions{Switches: true, Advice: true, Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Every node broadcasts every 2 ms, each tick a clock event.
	stopped := false
	defer func() { stopped = true }()
	payload := []byte("adaptive-workload")
	for i := 0; i < 3; i++ {
		node, err := c.Node(i)
		if err != nil {
			t.Fatal(err)
		}
		var tick func()
		tick = func() {
			if stopped || node.Broadcast(context.Background(), payload) != nil {
				return
			}
			vc.AfterFunc(2*time.Millisecond, tick)
		}
		vc.AfterFunc(time.Duration(i)*500*time.Microsecond, tick)
	}

	waitSwitch := func(want string) SwitchEvent {
		t.Helper()
		for waited := time.Duration(0); waited < 5*time.Second; waited += 10 * time.Millisecond {
			vc.RunFor(10 * time.Millisecond)
			select {
			case ev := <-sub.Switches():
				if ev.Protocol != want {
					t.Fatalf("switched to %s, want %s", ev.Protocol, want)
				}
				return ev
			default:
			}
		}
		t.Fatalf("controller never switched to %s", want)
		return SwitchEvent{}
	}

	// Lossy phase: the controller must converge to the loss-tolerant
	// consensus protocol.
	if err := c.SetLoss(0.35); err != nil {
		t.Fatal(err)
	}
	evCT := waitSwitch(ProtocolCT)

	// Recovery: back to the lean sequencer.
	if err := c.SetLoss(0); err != nil {
		t.Fatal(err)
	}
	evSeq := waitSwitch(ProtocolSequencer)
	if evSeq.Epoch <= evCT.Epoch {
		t.Fatalf("switch epochs not ordered: ct=%d seq=%d", evCT.Epoch, evSeq.Epoch)
	}

	// Stable environment: no further switches.
	vc.RunFor(500 * time.Millisecond)
	select {
	case ev := <-sub.Switches():
		t.Fatalf("controller flapped after recovery: %+v", ev)
	default:
	}

	// The switches were published as acted advice too, in order.
	var targets []string
	for len(targets) < 2 {
		select {
		case a := <-sub.Advice():
			if !a.Acted {
				t.Fatalf("active-mode advice not acted: %+v", a)
			}
			targets = append(targets, a.Target)
		default:
			t.Fatalf("advice stream incomplete: %v", targets)
		}
	}
	if targets[0] != ProtocolCT || targets[1] != ProtocolSequencer {
		t.Fatalf("advice targets = %v, want [%s %s]", targets, ProtocolCT, ProtocolSequencer)
	}

	// Node.Advise returns the last decision.
	last, err := node0.Advise()
	if err != nil {
		t.Fatal(err)
	}
	if last.Target != ProtocolSequencer || !last.Acted {
		t.Fatalf("Advise = %+v, want acted advice for %s", last, ProtocolSequencer)
	}
}

// TestAdaptiveAdvisoryParity runs the identical loss ramp in advisory
// mode: the advice stream must carry the same ordered targets the
// active controller switches through, with zero actual switches.
func TestAdaptiveAdvisoryParity(t *testing.T) {
	c, err := New(3, adaptiveTestOpts(Advisory())...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	node0, err := c.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := node0.Subscribe(SubscribeOptions{Switches: true, Advice: true, Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	wg := pump(t, c, 3, stop)
	defer func() { close(stop); wg.Wait() }()

	waitAdvice := func(want string) {
		t.Helper()
		deadline := time.After(30 * time.Second)
		for {
			select {
			case a := <-sub.Advice():
				if a.Acted {
					t.Fatalf("advisory advice marked acted: %+v", a)
				}
				if a.Target != want {
					t.Fatalf("advised %s, want %s", a.Target, want)
				}
				return
			case ev := <-sub.Switches():
				t.Fatalf("advisory mode switched protocols: %+v", ev)
			case <-deadline:
				t.Fatalf("no advice for %s", want)
			}
		}
	}

	if err := c.SetLoss(0.35); err != nil {
		t.Fatal(err)
	}
	waitAdvice(ProtocolCT)
	if err := c.SetLoss(0); err != nil {
		t.Fatal(err)
	}
	waitAdvice(ProtocolSequencer)

	// Zero switches throughout: the installed protocol is untouched.
	select {
	case ev := <-sub.Switches():
		t.Fatalf("advisory mode switched protocols: %+v", ev)
	case <-time.After(300 * time.Millisecond):
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := node0.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Protocol != ProtocolSequencer || st.Epoch != 0 {
		t.Fatalf("advisory mode changed the stack: %s", st)
	}
}

// TestAdaptiveDisabledErrors pins the sentinel: without WithAdaptive,
// Advise and Subscribe(Advice) fail with ErrNoAdaptive.
func TestAdaptiveDisabledErrors(t *testing.T) {
	c, err := New(2, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	node, err := c.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.Advise(); !errors.Is(err, ErrNoAdaptive) {
		t.Fatalf("Advise error = %v, want ErrNoAdaptive", err)
	}
	if _, err := node.Subscribe(SubscribeOptions{Advice: true}); !errors.Is(err, ErrNoAdaptive) {
		t.Fatalf("Subscribe error = %v, want ErrNoAdaptive", err)
	}
	// The zero-value Advice is returned before any decision.
	c2, err := New(2, WithSeed(2), WithInitialProtocol(ProtocolCT),
		WithAdaptive(LossSensitivePolicy(0, 0), Advisory(), AdaptiveInterval(time.Hour)))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	n2, err := c2.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := n2.Advise()
	if err != nil {
		t.Fatal(err)
	}
	if !adv.At.IsZero() {
		t.Fatalf("expected zero advice before first decision, got %+v", adv)
	}
}
