package vclock

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// These tests wait on events, never on a time budget: a deadline that is
// kept late makes them slow, not red.

func newPaced(t *testing.T) *Paced {
	p := NewPaced()
	t.Cleanup(p.Close)
	return p
}

// awaitState spins until the pacer goroutine is in state s.
func (p *Paced) awaitState(s pacerState) {
	for {
		p.mu.Lock()
		got := p.state
		p.mu.Unlock()
		if got == s {
			return
		}
		runtime.Gosched()
	}
}

func TestPacedFiresInDeadlineThenRegistrationOrder(t *testing.T) {
	p := newPaced(t)
	// Hold the pacer inside a callback while the others are armed, so
	// that it reads them off the heap rather than one by one as they come.
	gate, done := make(chan struct{}), make(chan struct{})
	p.AfterFunc(0, func() { <-gate })
	var got []int // pacer goroutine only, until done is closed
	rec := func(i int) func() { return func() { got = append(got, i) } }
	p.AfterFunc(3*time.Millisecond, rec(3))
	p.AfterFunc(time.Millisecond, rec(1))
	p.AfterFunc(2*time.Millisecond, rec(2))
	// Equal deadlines, which two AfterFunc calls cannot be made to
	// produce: registration order breaks the tie, as on Virtual.
	p.mu.Lock()
	at := int64(time.Since(p.base) + 4*time.Millisecond)
	p.armLocked(at, rec(4))
	p.armLocked(at, rec(5))
	p.armLocked(at, func() { close(done) })
	p.mu.Unlock()
	close(gate)
	<-done
	if fmt.Sprint(got) != "[1 2 3 4 5]" {
		t.Fatalf("fired %v, want [1 2 3 4 5]", got)
	}
}

func TestPacedStop(t *testing.T) {
	p := NewPaced()
	fired := false
	tm := p.AfterFunc(time.Hour, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop before the deadline should report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	done := make(chan struct{})
	tm = p.AfterFunc(0, func() { close(done) })
	<-done
	if tm.Stop() {
		t.Fatal("Stop after firing should report false")
	}
	p.Close() // waits for the pacer: nothing can fire after it
	if fired {
		t.Fatal("stopped timer fired")
	}
	if p.AfterFunc(0, func() { t.Error("callback armed on a closed clock ran") }).Stop() {
		t.Fatal("Stop on a closed clock should report false")
	}
}

func TestPacedEarlierDeadlineWakesTheSleep(t *testing.T) {
	p := newPaced(t)
	p.AfterFunc(time.Hour, func() { t.Error("the 1 h timer fired") })
	p.awaitState(pacerSleeping) // for an hour, unless AfterFunc interrupts it
	done := make(chan struct{})
	p.AfterFunc(0, func() { close(done) })
	<-done
	if n := p.PendingEvents(); n != 1 {
		t.Fatalf("%d events pending, want the 1 h timer alone", n)
	}
}

func TestPacedParksWhenEmptyAndResumes(t *testing.T) {
	p := newPaced(t)
	for i := 0; i < 3; i++ {
		done := make(chan struct{})
		p.AfterFunc(50*time.Microsecond, func() { close(done) })
		<-done
		p.awaitState(pacerParked)
	}
}

func TestPacedCallbackMayUseTheClock(t *testing.T) {
	p := newPaced(t)
	done := make(chan struct{})
	victim := p.AfterFunc(time.Hour, func() { t.Error("stopped timer fired") })
	p.AfterFunc(0, func() {
		if !victim.Stop() {
			t.Error("Stop from a callback should report true")
		}
		p.AfterFunc(0, func() { close(done) })
	})
	<-done
}

func TestPacedCloseReleasesTheGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		p := NewPaced()
		p.AfterFunc(time.Hour, func() {})
		if i%2 == 0 {
			p.awaitState(pacerSleeping)
		}
		p.Close()
		p.Close() // idempotent
	}
	NewPaced().Close() // never started
	// Close returns when the pacer has run its last statement, which is
	// an instant before the runtime stops counting it.
	for i := 0; i < 1000 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before, %d after 200 clocks", before, after)
	}
}

func TestPacedConcurrentArmAndStop(t *testing.T) {
	p := newPaced(t)
	var wg, fired sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				fired.Add(1)
				tm := p.AfterFunc(time.Duration(i%7)*20*time.Microsecond, fired.Done)
				if i%3 == 0 && tm.Stop() {
					fired.Done()
				}
			}
		}()
	}
	wg.Wait()
	fired.Wait()
	if n := p.PendingEvents(); n != 0 {
		t.Fatalf("%d events pending after all fired or stopped", n)
	}
}
