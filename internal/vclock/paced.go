package vclock

import "time"

// Paced is a wall clock that keeps sub-millisecond deadlines. It owns a
// schedule — the heap Virtual has — and fires it from one pacer
// goroutine that sleeps to the head's deadline with a µs-resolution OS
// timer, delivering everything due in one pass, in (deadline,
// registration) order.
//
// It exists because the runtime cannot do this in a mostly idle
// process: with every P parked the Go scheduler waits in the netpoller
// with a millisecond timeout, so time.AfterFunc(170µs) fires after
// about 1.1 ms. A batch window of 500 µs was 1.1 ms wide, and a fabric
// that schedules one delivery per packet costs a millisecond per
// simulated hop, whatever either is configured to cost.
//
// Two Paced clocks run in a process, the same schedule code under two
// sleepers, picked by role and by nothing else:
//
//   - Wall, the process heap, holds every wall-clock timer of the stacks
//     (Stack.After/Every: the batch flush, switch grace, rp2p's RTO, ct's
//     pull, token's idle hold, fd heartbeats), transport.Faulty's delays,
//     the TCP and join backoff (transport.WaitBackoff) and the policy
//     tick. Its pacer sleeps on a Linux timerfd read through the Go
//     netpoller, so a sleeping pacer holds no P, no locked thread and no
//     pipe; arming an earlier deadline reprograms the timerfd under the
//     heap lock instead of waking the pacer, and a later one changes
//     nothing (a stopped head leaves a stale, earlier expiry behind: the
//     pacer wakes once, finds nothing due and sleeps again). The sleep
//     must not hold a P: select(2) enters the kernel holding it, and with
//     GOMAXPROCS=1 nothing — the netpoller included — runs until sysmon
//     retakes it, up to 10 ms later. With the stacks on that sleeper
//     tcp-ct-large fell from 2370 to 1370 msgs/s (p99 5.3 → 22.4 ms) and
//     udp-seq-small lost 10 %. A timerfd in the netpoller wakes as
//     precisely as select(2) in an idle process: a 170-µs wait measured
//     p50/p90 191/198 µs against 188/254 at GOMAXPROCS=1, 184/191
//     against 184/188 at 2.
//   - NewPaced makes the simulated fabric's own (simnet), whose pacer
//     sleeps in select(2) on a locked thread with its timer slack
//     lowered. Moving the fabric's deliveries onto the timerfd sleeper
//     read sim-switch-storm latency_p50_ms 18 % higher (0.85 → 1.01–1.04
//     ms, 6 of 6 pairs at two Ps), whether on its own pacer or on the
//     process heap; with the fabric on select(2) and only the stacks'
//     timers moved, the storm was level.
//
// Off Linux both use a runtime timer, which keeps the deadlines the
// runtime keeps.
//
// Callbacks run inline on the pacer goroutine, one at a time, and must
// return quickly: on Wall one blocked callback freezes every timer in
// the process, including the ones it may be waiting for. They may call
// AfterFunc, Stop and Reset on the same clock. The callers of Wall, by
// what their callbacks do: kernel timers enqueue one executor task;
// WaitBackoff and the join backoff in dpu close a channel; the policy
// engine signals its own goroutine, which samples and acts (Act blocks
// for a whole protocol switch); transport.Faulty hands a delayed
// datagram to a sender goroutine, because a socket write can park on a
// full buffer; the scenario runner starts a goroutine per action. Now,
// AfterFunc, Stop and Reset are safe from any goroutine.
type Paced struct {
	schedule
	base     time.Time
	newSleep func() sleeper // the role's sleeper, made when the pacer starts
	state    pacerState     // guarded by schedule.mu
	sleepAt  int64          // pacerSleeping: the deadline the sleep ends at, -1 for none; guarded by schedule.mu
	done     chan struct{}  // closed when the pacer goroutine has exited
	sl       sleeper        // nil until the pacer starts
}

// pacerState is what the pacer goroutine is doing, so that AfterFunc
// knows whether and how to tell it about an earlier deadline.
type pacerState int

const (
	pacerNone     pacerState = iota // not started yet
	pacerRunning                    // firing callbacks; reads the heap again before it sleeps
	pacerSleeping                   // in sl.sleep, until sleepAt or forever
	pacerClosed
)

// sleeper is the pacer's sleep. program, sleep and close are called by
// the pacer goroutine only, program with schedule.mu held; advance by
// anyone with schedule.mu held.
type sleeper interface {
	// program sets when the next sleep ends: wait from now, or never
	// (until an advance) when wait is negative.
	program(wait time.Duration)
	// sleep blocks until the programmed time, or an earlier one set by
	// advance; it may return early.
	sleep()
	// advance moves the end of the sleep in progress, or about to start,
	// to wait from now, which is earlier than what it was told. It
	// reports false when it could only end the sleep: the pacer reads the
	// heap then and must not be told again until it sleeps again.
	advance(wait time.Duration) bool
	// close frees the sleeper; it is called by the pacer as it exits.
	close()
}

// NewPaced creates the paced clock of a simulated fabric (its sleeper
// is the fabric's, see Paced). It holds no goroutine, thread or
// descriptor until the first AfterFunc; Close releases them.
func NewPaced() *Paced { return newPaced(newFabricSleeper) }

func newPaced(newSleep func() sleeper) *Paced {
	return &Paced{base: time.Now(), newSleep: newSleep, done: make(chan struct{})}
}

// Now returns the current wall-clock instant.
func (p *Paced) Now() time.Time { return time.Now() }

// AfterFunc schedules fn to run on the pacer goroutine d from now.
func (p *Paced) AfterFunc(d time.Duration, fn func()) Timer {
	ev := &vevent{c: p, fn: fn, index: -1}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.armLocked(ev, d)
	return ev
}

// armLocked queues ev and tells the pacer when it must wake earlier
// than it planned to.
func (p *Paced) armLocked(ev *vevent, d time.Duration) {
	if p.state == pacerClosed {
		ev.stopped = true // never fires; Stop reports false
		return
	}
	now := int64(time.Since(p.base))
	wait := max(d, 0)
	at := now + int64(wait)
	p.pushLocked(ev, at)
	switch p.state {
	case pacerNone:
		p.sl = p.newSleep()
		p.state = pacerRunning
		go p.run()
	case pacerSleeping:
		if p.sleepAt >= 0 && at >= p.sleepAt {
			return // the pacer wakes in time for it
		}
		if p.sl.advance(wait) {
			p.sleepAt = at
		} else {
			p.state = pacerRunning // told once; it reads the heap again before it sleeps
		}
	}
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
	if prev == pacerSleeping {
		p.sl.advance(0)
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
		p.state = pacerSleeping
		p.sleepAt = -1
		wait := time.Duration(-1)
		if p.events.Len() > 0 {
			p.sleepAt = p.events[0].at
			wait = time.Duration(p.sleepAt - now)
		}
		p.sl.program(wait)
		p.mu.Unlock()
		p.sl.sleep()
		p.mu.Lock()
	}
}

// timerSleeper is the portable sleeper: a runtime timer and a channel.
// It keeps millisecond deadlines at best in an idle process; platforms
// with something better provide their sleepers themselves and fall back
// to this one.
type timerSleeper struct {
	wake chan struct{}
	wait time.Duration // as programmed; the pacer's, written under schedule.mu
}

func newTimerSleeper() sleeper { return &timerSleeper{wake: make(chan struct{}, 1)} }

func (s *timerSleeper) program(wait time.Duration) { s.wait = wait }

func (s *timerSleeper) sleep() {
	if s.wait < 0 {
		<-s.wake
		return
	}
	t := time.NewTimer(s.wait)
	select {
	case <-t.C:
	case <-s.wake:
		t.Stop()
	}
}

// advance leaves at most one token: a sleep that timed out as it was
// advanced leaves its token for the next one, which then returns early
// and reads the heap again.
func (s *timerSleeper) advance(time.Duration) bool {
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return false
}

func (s *timerSleeper) close() {}
