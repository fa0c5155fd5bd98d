package kernel

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/vclock"
)

// These tests wait on events, never on a time budget.

// holdExecutor occupies st's executor, inside a task, until the returned
// func is called.
func holdExecutor(st *Stack) (release func()) {
	gate, held := make(chan struct{}), make(chan struct{})
	st.Do(func() { close(held); <-gate })
	<-held
	return func() { close(gate) }
}

// awaitQueued spins until tm has fired and its task waits on the
// executor.
func awaitQueued(tm *Timer) {
	for {
		tm.st.timerMu.Lock()
		q := tm.queued
		tm.st.timerMu.Unlock()
		if q {
			return
		}
		runtime.Gosched()
	}
}

func TestTimerResetInPlace(t *testing.T) {
	st := newTestStack(t, nil)
	fired := make(chan struct{}, 1)
	tm := st.NewTimer(func() { fired <- struct{}{} })
	for i := 0; i < 100; i++ {
		tm.Reset(time.Hour)
	}
	ct := tm.ct
	for i := 0; i < 3; i++ {
		tm.Reset(0)
		<-fired
	}
	tm.Reset(time.Hour)
	tm.Stop()
	tm.Reset(0)
	<-fired
	if tm.ct != ct {
		t.Fatal("re-arming replaced the clock entry")
	}
	st.timerMu.Lock()
	defer st.timerMu.Unlock()
	if len(st.timers) != 0 || tm.slot != -1 {
		t.Fatalf("%d timers armed after the last firing, want none", len(st.timers))
	}
}

// TestTimerStopOrResetDropsAQueuedFiring: a firing whose task has not
// run yet is superseded by a Stop or a Reset.
func TestTimerStopOrResetDropsAQueuedFiring(t *testing.T) {
	for _, supersede := range []string{"Stop", "Reset"} {
		t.Run(supersede, func(t *testing.T) {
			st := newTestStack(t, nil)
			ran := 0 // executor only
			tm := st.NewTimer(func() { ran++ })
			release := holdExecutor(st)
			tm.Reset(0)
			awaitQueued(tm)
			if supersede == "Stop" {
				tm.Stop()
			} else {
				tm.Reset(time.Hour)
			}
			release()
			st.DoSync(func() {
				if ran != 0 {
					t.Errorf("superseded firing ran %d times", ran)
				}
			})
			tm.Stop()
		})
	}
}

// TestEveryCoalescesFiringsTheExecutorHasNotRun: a periodic timer that
// fires again before its last task ran queues no second task.
func TestEveryCoalescesFiringsTheExecutorHasNotRun(t *testing.T) {
	st := newTestStack(t, nil)
	ran := make(chan struct{}, 16)
	release := holdExecutor(st)
	tm := st.Every(10*time.Microsecond, func() { ran <- struct{}{} })
	awaitQueued(tm)
	// It keeps firing every 10 µs while the executor is held; however
	// often it did, one task waits.
	time.Sleep(2 * time.Millisecond)
	st.exec.mu.Lock()
	queued := len(st.exec.queue)
	st.exec.mu.Unlock()
	if queued != 1 {
		t.Fatalf("%d tasks queued, want the one firing", queued)
	}
	tm.Stop()
	release()
	st.DoSync(func() {})
	if len(ran) != 0 {
		t.Fatalf("a stopped Every ran %d times", len(ran))
	}
}

// TestTimerResetOrdersAsAFreshRegistration: under a virtual clock a
// re-armed timer fires after the timers armed before it for the same
// instant, exactly where a new After would.
func TestTimerResetOrdersAsAFreshRegistration(t *testing.T) {
	v := vclock.NewVirtual()
	st := NewStack(Config{Addr: 0, Peers: []Addr{0}, Clock: v})
	t.Cleanup(st.Close)
	var got []int // executor only; read after the clock is quiescent
	a := st.After(10*time.Millisecond, func() { got = append(got, 1) })
	st.After(10*time.Millisecond, func() { got = append(got, 2) })
	a.Reset(10 * time.Millisecond)
	v.RunFor(10 * time.Millisecond)
	if fmt.Sprint(got) != "[2 1]" {
		t.Fatalf("fired %v, want [2 1]", got)
	}
}
