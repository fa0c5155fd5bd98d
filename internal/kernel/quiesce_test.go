package kernel

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vclock"
)

// A stack built on a virtual clock holds the clock back while it has
// work, with no step beyond NewStack. These tests assert no wall-clock
// budget: a busy count that leaks hangs RunFor, and the package timeout
// reports it.

func newVirtualStack(t *testing.T, v *vclock.Virtual, addr Addr) *Stack {
	t.Helper()
	st := NewStack(Config{Addr: addr, Peers: []Addr{0, 1}, Clock: v})
	t.Cleanup(st.Close)
	return st
}

// fireAfter checks that the clock is not held by a leaked count: an
// event armed now fires, and RunFor returns.
func fireAfter(t *testing.T, v *vclock.Virtual) {
	t.Helper()
	fired := false
	v.AfterFunc(time.Millisecond, func() { fired = true })
	v.RunFor(time.Millisecond)
	if !fired {
		t.Fatal("the next event did not fire")
	}
}

// TestVirtualClockWaitsForACascadeAcrossStacks: a clock event hands work
// to stack A, whose task hands work to stack B, which takes 20 ms of
// real time. The next event fires only after B's task finished.
func TestVirtualClockWaitsForACascadeAcrossStacks(t *testing.T) {
	v := vclock.NewVirtual()
	a, b := newVirtualStack(t, v, 0), newVirtualStack(t, v, 1)
	var finished atomic.Bool
	v.AfterFunc(time.Millisecond, func() {
		a.Do(func() {
			b.Do(func() {
				time.Sleep(20 * time.Millisecond)
				finished.Store(true)
			})
		})
	})
	ordered := false // driver only
	v.AfterFunc(2*time.Millisecond, func() { ordered = finished.Load() })
	v.RunFor(2 * time.Millisecond)
	if !ordered {
		t.Fatal("the second event fired before stack B's task finished")
	}
}

// TestVirtualClockCountSurvivesCrashAndClose: an executor that stops
// with work queued or a pass running leaves the busy count as it found
// it, whether the stop drops the work or drains it.
func TestVirtualClockCountSurvivesCrashAndClose(t *testing.T) {
	t.Run("crash-with-unclaimed-queue", func(t *testing.T) {
		v := vclock.NewVirtual()
		// Built without starting its loop, so the queued task stays
		// unclaimed (queued, no pass running) when the crash drops it.
		e := &executor{done: make(chan struct{}), vc: v, flush: func() {},
			runTask: func(*task) { t.Error("a dropped task ran") }}
		e.cond = sync.NewCond(&e.mu)
		e.do(func() {})
		e.stop(false)
		go e.run()
		e.wait()
		fireAfter(t, v)
	})
	t.Run("crash-during-a-pass", func(t *testing.T) {
		v := vclock.NewVirtual()
		st := newVirtualStack(t, v, 0)
		v.AfterFunc(time.Millisecond, func() {
			st.Do(func() {
				st.Do(func() { t.Error("a task queued before the crash ran") })
				st.Crash()
			})
		})
		v.RunFor(time.Millisecond)
		<-st.Done()
		fireAfter(t, v)
	})
	t.Run("close-with-queued-work", func(t *testing.T) {
		v := vclock.NewVirtual()
		st := newVirtualStack(t, v, 0)
		release := holdExecutor(st)
		ran := false
		st.Do(func() { ran = true })
		closed := make(chan struct{})
		go func() { st.Close(); close(closed) }()
		for st.Running() {
			time.Sleep(time.Millisecond)
		}
		release()
		<-closed
		if !ran {
			t.Fatal("Close dropped a queued task")
		}
		fireAfter(t, v)
	})
}
