package vclock

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestVirtualOrdering(t *testing.T) {
	v := NewVirtual()
	var got []int
	v.AfterFunc(30*time.Millisecond, func() { got = append(got, 3) })
	v.AfterFunc(10*time.Millisecond, func() { got = append(got, 1) })
	v.AfterFunc(20*time.Millisecond, func() { got = append(got, 2) })
	// Same deadline: registration order breaks the tie.
	v.AfterFunc(30*time.Millisecond, func() { got = append(got, 4) })
	v.RunFor(30 * time.Millisecond)
	if n := v.PendingEvents(); n != 0 {
		t.Fatalf("%d events pending after their deadlines, want 0", n)
	}
	want := []int{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if e := v.Elapsed(); e != 30*time.Millisecond {
		t.Fatalf("elapsed %v, want 30ms", e)
	}
}

func TestVirtualStop(t *testing.T) {
	v := NewVirtual()
	fired := false
	tm := v.AfterFunc(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("first Stop should report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	if n := v.PendingEvents(); n != 0 {
		t.Fatalf("%d events pending, want 0", n)
	}
	v.RunFor(time.Millisecond)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

// TestVirtualResetIsAFreshRegistration: re-arming in place fires where
// a new AfterFunc would — after every timer registered before it at the
// same deadline — and keeps one heap entry.
func TestVirtualResetIsAFreshRegistration(t *testing.T) {
	v := NewVirtual()
	var got []int
	a := v.AfterFunc(10*time.Millisecond, func() { got = append(got, 1) })
	v.AfterFunc(10*time.Millisecond, func() { got = append(got, 2) })
	a.Reset(10 * time.Millisecond)
	if n := v.PendingEvents(); n != 2 {
		t.Fatalf("%d events pending, want 2", n)
	}
	v.RunFor(10 * time.Millisecond)
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("fired %v, want [2 1]", got)
	}
	a.Reset(5 * time.Millisecond) // after it fired
	v.RunFor(5 * time.Millisecond)
	if len(got) != 3 || got[2] != 1 {
		t.Fatalf("fired %v, want the re-armed timer again", got)
	}
}

func TestVirtualRunForAdvancesExactly(t *testing.T) {
	v := NewVirtual()
	var fired atomic.Int32
	v.AfterFunc(5*time.Millisecond, func() { fired.Add(1) })
	v.AfterFunc(50*time.Millisecond, func() { fired.Add(1) })
	v.RunFor(10 * time.Millisecond)
	if fired.Load() != 1 {
		t.Fatalf("fired %d events, want 1", fired.Load())
	}
	if e := v.Elapsed(); e != 10*time.Millisecond {
		t.Fatalf("elapsed %v, want 10ms", e)
	}
	v.RunFor(40 * time.Millisecond)
	if fired.Load() != 2 {
		t.Fatalf("fired %d events, want 2", fired.Load())
	}
	if e := v.Elapsed(); e != 50*time.Millisecond {
		t.Fatalf("elapsed %v, want 50ms", e)
	}
}

func TestVirtualRearmChain(t *testing.T) {
	v := NewVirtual()
	var ticks int
	var arm func()
	arm = func() {
		v.AfterFunc(10*time.Millisecond, func() {
			ticks++
			if ticks < 5 {
				arm()
			}
		})
	}
	arm()
	v.RunFor(100 * time.Millisecond)
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
}

func TestWallClock(t *testing.T) {
	if IsVirtual(Wall) {
		t.Fatal("Wall must not be virtual")
	}
	before := time.Now()
	now := Wall.Now()
	if now.Before(before.Add(-time.Second)) {
		t.Fatalf("Wall.Now too far in the past: %v", now)
	}
	done := make(chan struct{})
	tm := Wall.AfterFunc(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("wall timer did not fire")
	}
	if tm.Stop() {
		t.Fatal("Stop after firing should report false")
	}
	if !IsVirtual(NewVirtual()) {
		t.Fatal("NewVirtual must be virtual")
	}
}
