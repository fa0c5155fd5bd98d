package vclock

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// These tests wait on events, never on a time budget: a deadline that is
// kept late makes them slow, not red. Each runs on both sleepers, the
// fabric's and the process heap's.

var roles = []struct {
	name     string
	newSleep func() sleeper
}{
	{"fabric", newFabricSleeper},
	{"heap", newHeapSleeper},
}

// forEachRole runs f on a fresh clock of each role, closed with the test.
func forEachRole(t *testing.T, f func(t *testing.T, p *Paced)) {
	for _, r := range roles {
		t.Run(r.name, func(t *testing.T) {
			p := newPaced(r.newSleep)
			t.Cleanup(p.Close)
			f(t, p)
		})
	}
}

// awaitSleep spins until the pacer goroutine sleeps, to a deadline when
// deadline is set and without one otherwise.
func (p *Paced) awaitSleep(deadline bool) {
	for {
		p.mu.Lock()
		ok := p.state == pacerSleeping && (p.sleepAt >= 0) == deadline
		p.mu.Unlock()
		if ok {
			return
		}
		runtime.Gosched()
	}
}

func TestPacedFiresInDeadlineThenRegistrationOrder(t *testing.T) {
	forEachRole(t, func(t *testing.T, p *Paced) {
		// Hold the pacer inside a callback while the others are armed, so
		// that it reads them off the heap rather than one by one as they
		// come.
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
		for _, fn := range []func(){rec(4), rec(5), func() { close(done) }} {
			p.pushLocked(&vevent{c: p, fn: fn, index: -1}, at)
		}
		p.mu.Unlock()
		close(gate)
		<-done
		if fmt.Sprint(got) != "[1 2 3 4 5]" {
			t.Fatalf("fired %v, want [1 2 3 4 5]", got)
		}
	})
}

func TestPacedStop(t *testing.T) {
	for _, r := range roles {
		t.Run(r.name, func(t *testing.T) {
			p := newPaced(r.newSleep)
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
			dead := p.AfterFunc(0, func() { t.Error("callback armed on a closed clock ran") })
			dead.Reset(0)
			if dead.Stop() {
				t.Fatal("Stop on a closed clock should report false")
			}
		})
	}
}

// TestPacedStopTheHead stops the deadline the pacer sleeps to, then arms
// a later one. Neither sleeper is told: the pacer wakes at the stale
// expiry, finds nothing due, and sleeps again to the new head.
func TestPacedStopTheHead(t *testing.T) {
	forEachRole(t, func(t *testing.T, p *Paced) {
		p.AfterFunc(time.Hour, func() { t.Error("the 1 h timer fired") })
		// A head that fires before the test can stop it is simply missed:
		// try again with a longer one.
		d := time.Millisecond
		for ; ; d *= 4 {
			head := p.AfterFunc(d, func() {})
			p.awaitSleep(true)
			if head.Stop() {
				break
			}
		}
		done := make(chan struct{})
		p.AfterFunc(2*d, func() { close(done) })
		<-done
		if n := p.PendingEvents(); n != 1 {
			t.Fatalf("%d events pending, want the 1 h timer alone", n)
		}
	})
}

func TestPacedEarlierDeadlineWakesTheSleep(t *testing.T) {
	forEachRole(t, func(t *testing.T, p *Paced) {
		p.AfterFunc(time.Hour, func() { t.Error("the 1 h timer fired") })
		p.awaitSleep(true) // for an hour, unless AfterFunc moves the wake-up
		done := make(chan struct{})
		p.AfterFunc(0, func() { close(done) })
		<-done
		if n := p.PendingEvents(); n != 1 {
			t.Fatalf("%d events pending, want the 1 h timer alone", n)
		}
	})
}

func TestPacedParksWhenEmptyAndResumes(t *testing.T) {
	forEachRole(t, func(t *testing.T, p *Paced) {
		for i := 0; i < 3; i++ {
			done := make(chan struct{})
			p.AfterFunc(50*time.Microsecond, func() { close(done) })
			<-done
			p.awaitSleep(false)
		}
	})
}

func TestPacedCallbackMayUseTheClock(t *testing.T) {
	forEachRole(t, func(t *testing.T, p *Paced) {
		done := make(chan struct{})
		victim := p.AfterFunc(time.Hour, func() { t.Error("stopped timer fired") })
		var again Timer
		n := 0 // pacer goroutine only
		again = p.AfterFunc(time.Hour, func() {
			if n++; n == 2 {
				close(done)
				return
			}
			again.Reset(0) // a callback re-arms itself
		})
		p.AfterFunc(0, func() {
			if !victim.Stop() {
				t.Error("Stop from a callback should report true")
			}
			again.Reset(0)
		})
		<-done
	})
}

// TestPacedResetInPlace re-arms one timer many times: it keeps one heap
// entry, fires once per arm, and can be re-armed after it fired or was
// stopped.
func TestPacedResetInPlace(t *testing.T) {
	forEachRole(t, func(t *testing.T, p *Paced) {
		fired := make(chan struct{}, 1)
		tm := p.AfterFunc(time.Hour, func() { fired <- struct{}{} })
		for i := 0; i < 100; i++ {
			tm.Reset(time.Duration(i+1) * time.Hour)
		}
		if n := p.PendingEvents(); n != 1 {
			t.Fatalf("%d events pending after 100 re-arms, want 1", n)
		}
		for i := 0; i < 3; i++ {
			tm.Reset(0)
			<-fired
		}
		tm.Reset(time.Hour)
		if !tm.Stop() {
			t.Fatal("Stop of a re-armed timer should report true")
		}
		tm.Reset(0)
		<-fired
		if n := p.PendingEvents(); n != 0 {
			t.Fatalf("%d events pending, want none", n)
		}
	})
}

func TestPacedCloseReleasesTheGoroutine(t *testing.T) {
	for _, r := range roles {
		t.Run(r.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for i := 0; i < 200; i++ {
				p := newPaced(r.newSleep)
				p.AfterFunc(time.Hour, func() {})
				if i%2 == 0 {
					p.awaitSleep(true)
				}
				p.Close()
				p.Close() // idempotent
			}
			newPaced(r.newSleep).Close() // never started
			// Close returns when the pacer has run its last statement, which
			// is an instant before the runtime stops counting it.
			for i := 0; i < 1000 && runtime.NumGoroutine() > before; i++ {
				time.Sleep(time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("%d goroutines before, %d after 200 clocks", before, after)
			}
		})
	}
}

// TestPacedConcurrentArmAndStop arms and stops 10 000 timers from four
// goroutines, re-arming some in place; run it under -race.
func TestPacedConcurrentArmAndStop(t *testing.T) {
	forEachRole(t, func(t *testing.T, p *Paced) {
		var wg, fired sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 2500; i++ {
					fired.Add(1)
					tm := p.AfterFunc(time.Duration(i%7)*20*time.Microsecond, fired.Done)
					switch {
					case i%3 == 0 && tm.Stop():
						fired.Done()
					case i%5 == 0 && tm.Stop():
						tm.Reset(time.Duration(i%11) * 10 * time.Microsecond)
					}
				}
			}()
		}
		wg.Wait()
		fired.Wait()
		if n := p.PendingEvents(); n != 0 {
			t.Fatalf("%d events pending after all fired or stopped", n)
		}
	})
}
