package vclock

import "time"

// Paced is a wall clock that keeps sub-millisecond deadlines. It owns a
// schedule — the heap Virtual has — and fires it from one pacer
// goroutine that sleeps to the head's deadline with a µs-resolution OS
// sleep, delivering everything due in one pass, in (deadline,
// registration) order.
//
// It exists because the runtime cannot do this in a mostly idle
// process: with every P parked the Go scheduler waits in the netpoller
// with a millisecond timeout, so time.AfterFunc(170µs) fires after
// about 1.1 ms. A fabric that schedules one delivery per packet (simnet)
// then costs a millisecond per simulated hop whatever it is configured
// to cost. Timers that are armed and stopped far more often than they
// fire (retransmission, failure detection, batch flush) belong on Wall,
// whose runtime timers live on per-P heaps and cost no wake-up.
//
// Callbacks run inline on the pacer goroutine, one at a time, and must
// return quickly; they may call AfterFunc and Stop on the same clock.
// Now, AfterFunc and Stop are safe from any goroutine.
type Paced struct {
	schedule
	base  time.Time
	state pacerState    // guarded by schedule.mu
	wake  chan struct{} // resumes a parked pacer; buffered for the one pending signal
	done  chan struct{} // closed when the pacer goroutine has exited
	sl    sleeper       // the pacer's interruptible sleep; nil until it starts
}

// pacerState is what the pacer goroutine is doing, so that AfterFunc
// knows whether and how to tell it about an earlier deadline.
type pacerState int

const (
	pacerNone     pacerState = iota // not started yet
	pacerRunning                    // firing callbacks; reads the heap again before it sleeps
	pacerSleeping                   // in sl.sleep, to the deadline that was the head
	pacerParked                     // heap empty, blocked on wake
	pacerClosed
)

// sleeper is the pacer's interruptible sleep. sleep and release are
// called by the pacer goroutine only; interrupt by anyone, at most once
// per sleep (schedule.mu and pacerState see to that).
type sleeper interface {
	// sleep blocks for d or until interrupt, whichever is first.
	sleep(d time.Duration)
	// interrupt ends the sleep in progress or, failing that, the next.
	interrupt()
	// release gives back what sleep holds between calls (an OS thread);
	// the pacer calls it before it parks.
	release()
	// close frees the sleeper; no sleep is in progress.
	close()
}

// NewPaced creates a paced wall clock. It holds no goroutine, thread or
// descriptor until the first AfterFunc; Close releases them.
func NewPaced() *Paced {
	return &Paced{
		base: time.Now(),
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
}

// Now returns the current wall-clock instant.
func (p *Paced) Now() time.Time { return time.Now() }

// AfterFunc schedules fn to run on the pacer goroutine d from now.
func (p *Paced) AfterFunc(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state == pacerClosed {
		return &vevent{s: &p.schedule, stopped: true, index: -1}
	}
	ev := p.armLocked(int64(time.Since(p.base)+d), fn)
	if ev.index != 0 {
		return ev // not the earliest deadline: the pacer's plan stands
	}
	switch p.state {
	case pacerNone:
		p.sl = newSleeper()
		go p.run()
	case pacerSleeping:
		p.sl.interrupt()
	case pacerParked:
		p.wake <- struct{}{}
	}
	p.state = pacerRunning // told once; it reads the heap again before it sleeps
	return ev
}

// Close drops every pending callback and returns once the pacer
// goroutine has exited and its thread and descriptors are released. It
// must not be called from a callback. AfterFunc on a closed clock
// returns a timer that never fires.
func (p *Paced) Close() {
	p.mu.Lock()
	prev := p.state
	p.state = pacerClosed
	for _, ev := range p.events {
		ev.stopped = true
		ev.index = -1
	}
	p.events = nil
	switch prev {
	case pacerSleeping:
		p.sl.interrupt()
	case pacerParked:
		p.wake <- struct{}{}
	}
	p.mu.Unlock()
	if prev != pacerNone && prev != pacerClosed {
		<-p.done
	}
}

// run is the pacer goroutine.
func (p *Paced) run() {
	defer close(p.done)
	defer p.sl.close()
	defer p.sl.release()
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.state != pacerClosed {
		p.state = pacerRunning
		now := int64(time.Since(p.base))
		if ev := p.popDueLocked(now); ev != nil {
			p.mu.Unlock()
			ev.fn()
			p.mu.Lock()
			continue
		}
		if p.events.Len() == 0 {
			// Block on a Go primitive, not in the kernel: an idle clock
			// pins no thread.
			p.state = pacerParked
			p.mu.Unlock()
			p.sl.release()
			<-p.wake
		} else {
			wait := time.Duration(p.events[0].at - now)
			p.state = pacerSleeping
			p.mu.Unlock()
			p.sl.sleep(wait)
		}
		p.mu.Lock()
	}
}

// timerSleeper is the portable sleeper: a runtime timer and a channel.
// It keeps millisecond deadlines at best in an idle process; platforms
// with something better provide newSleeper themselves and fall back to
// this one.
type timerSleeper struct{ wake chan struct{} }

func newTimerSleeper() sleeper { return timerSleeper{wake: make(chan struct{}, 1)} }

func (s timerSleeper) sleep(d time.Duration) {
	t := time.NewTimer(d)
	select {
	case <-t.C:
	case <-s.wake:
		t.Stop()
	}
}

// interrupt leaves at most one token: a sleep that timed out as it was
// interrupted leaves its token for the next one, which then returns
// early and reads the heap again.
func (s timerSleeper) interrupt() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

func (s timerSleeper) release() {}
func (s timerSleeper) close()   {}
