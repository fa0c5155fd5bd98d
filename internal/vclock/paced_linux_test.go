//go:build linux

package vclock

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// settimes reads the heap sleeper's timerfd_settime count.
func (p *Paced) settimes(t *testing.T) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.sl.(*timerfdSleeper)
	if !ok {
		t.Skipf("heap sleeper is %T: no timerfd in this process", p.sl)
	}
	return s.settimes
}

// TestHeapReprogramsOnlyForAnEarlierDeadline: a deadline earlier than
// the one the timerfd is programmed for reprograms it, under the heap
// lock, and the pacer sleeps on; a later one, or stopping the head,
// leaves it alone.
func TestHeapReprogramsOnlyForAnEarlierDeadline(t *testing.T) {
	p := newPaced(newHeapSleeper)
	t.Cleanup(p.Close)
	p.AfterFunc(time.Hour, func() {})
	p.awaitSleep(true)
	n := p.settimes(t)
	p.AfterFunc(2*time.Hour, func() {})
	if got := p.settimes(t); got != n {
		t.Fatalf("a later deadline reprogrammed the timer (%d settime calls, want %d)", got, n)
	}
	head := p.AfterFunc(30*time.Minute, func() {})
	if got := p.settimes(t); got != n+1 {
		t.Fatalf("an earlier deadline made %d settime calls, want 1", got-n)
	}
	p.mu.Lock()
	state, at := p.state, p.sleepAt
	p.mu.Unlock()
	if state != pacerSleeping || at != head.(*vevent).at {
		t.Fatalf("pacer state %d to %d after an earlier deadline, want sleeping to the new head %d", state, at, head.(*vevent).at)
	}
	head.Stop()
	p.AfterFunc(45*time.Minute, func() {})
	if got := p.settimes(t); got != n+1 {
		t.Fatalf("stopping the head and arming behind it reprogrammed the timer (%d settime calls, want %d)", got, n+1)
	}
}

// TestSleepingPacerHoldsNoP: with a timer an hour away, Wall's pacer
// goroutine is parked in the netpoller — IO wait — and neither in a
// system call nor locked to a thread. A sleep that holds a P starves
// every goroutine of a GOMAXPROCS=1 process until sysmon retakes it.
func TestSleepingPacerHoldsNoP(t *testing.T) {
	wall := Wall.(*Paced)
	// The pacer names itself: a callback runs on its goroutine.
	id := make(chan string, 1)
	wall.AfterFunc(0, func() {
		buf := make([]byte, 64)
		id <- strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
	})
	header := "goroutine " + <-id + " ["
	tm := wall.AfterFunc(time.Hour, func() { t.Error("the 1 h timer fired") })
	t.Cleanup(func() { tm.Stop() })
	wall.awaitSleep(true)
	// The pacer is on its way into the sleep; wait until it is in it.
	for {
		state := goroutineState(header)
		if state == "" {
			t.Fatalf("no %s...] in the goroutine dump", header)
		}
		if state == "running" || state == "runnable" {
			runtime.Gosched()
			continue
		}
		if !strings.HasPrefix(state, "IO wait") || strings.Contains(state, "syscall") || strings.Contains(state, "locked to thread") {
			t.Fatalf("sleeping pacer is [%s], want [IO wait] without a system call or a locked thread", state)
		}
		return
	}
}

// goroutineState returns the bracketed state of the goroutine whose
// dump begins with header, or "" when there is none.
func goroutineState(header string) string {
	buf := make([]byte, 1<<20)
	dump := string(buf[:runtime.Stack(buf, true)])
	i := strings.Index(dump, header)
	if i < 0 {
		return ""
	}
	rest := dump[i+len(header):]
	return rest[:strings.IndexByte(rest, ']')]
}
