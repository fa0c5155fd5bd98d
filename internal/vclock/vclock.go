// Package vclock abstracts time for the stack so whole clusters can run
// under discrete-event virtual time. Simulations use Virtual, a
// deterministic event scheduler that advances time only when no kernel
// executor on it has work queued or running. Wall time is kept by
// Paced: Virtual's deadline heap fired by one goroutine that keeps
// sub-millisecond deadlines. Production code uses Wall, the one
// Paced that holds every wall-clock timer in the process; a simulated
// fabric that runs in real time owns another (see Paced). They are the
// stack's only adapter to the runtime clock.
//
// # Determinism
//
// The virtual clock guarantees a reproducible execution provided three
// properties hold, all of which the stack satisfies:
//
//  1. Every timer callback is registered through one Clock, so firing
//     order is the heap order (deadline, then registration sequence) —
//     there is no racing set of runtime timers.
//  2. The clock fires at most one event at a time and waits for full
//     quiescence (all executors idle, no queued work anywhere) before
//     firing the next, so the event cascade triggered by one firing is
//     serialized: shared randomness (the simnet fault RNG) is consumed
//     in a reproducible order.
//  3. Executors do no wall-clock-dependent work of their own.
//
// Quiescence is one busy count that the executors keep themselves (see
// AddBusy): an executor built on a Virtual is counted while it has work
// queued or a pass running. Every enqueue happens on an executor that
// is itself counted, or on the clock's owner before it waits, so the
// count cannot reach zero while a cascade is still running. The owner
// waits in a yield loop around one atomic read, not on a condition
// variable: both fire the same events in the same order, but parking
// the owner between events changes how far goroutines that watch the
// run (a benchmark's collector draining delivery channels) get between
// two firings, and with it any figure they derive from arrival order.
package vclock

import (
	"container/heap"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Timer is a cancellable pending callback, the clock-agnostic subset of
// *time.Timer. Stop reports whether it prevented the callback from
// firing. Reset arms the timer again to run its callback d from now,
// whether it is pending, fired or stopped: the callback keeps its heap
// entry, so re-arming allocates nothing, and takes a fresh registration
// number, so it fires exactly where a new AfterFunc would. Reset reports
// whether the timer was pending; when it was not, a firing of the
// previous arm may still be about to run its callback, as with
// time.Timer.
type Timer interface {
	Stop() bool
	Reset(d time.Duration) bool
}

// Clock supplies the two time operations the stack uses: reading the
// current instant and scheduling a callback.
type Clock interface {
	Now() time.Time
	AfterFunc(d time.Duration, fn func()) Timer
}

// Wall is the real-time clock: one Paced that every wall-clock timer in
// the process shares, fired from one pacer goroutine. Its callbacks must
// not block (see Paced).
var Wall Clock = newPaced(newHeapSleeper)

// IsVirtual reports whether c is a virtual clock, letting callers pick
// non-blocking code paths that are safe to run on the clock goroutine.
func IsVirtual(c Clock) bool {
	_, ok := c.(*Virtual)
	return ok
}

// Virtual is a discrete-event clock. Timer callbacks run inline on the
// goroutine calling RunFor (the driver), one at a time, each only after
// the previous event's cascade has fully drained.
//
// RunFor must be called from a single goroutine; Now, AfterFunc, Stop
// and AddBusy are safe from any goroutine.
type Virtual struct {
	schedule
	base time.Time
	now  int64        // nanoseconds since base; guarded by schedule.mu
	busy atomic.Int64 // executors with work queued or running; see AddBusy
}

// NewVirtual creates a virtual clock. Time starts at a fixed arbitrary
// epoch so timestamps look plausible in traces but carry no relation to
// the host clock.
func NewVirtual() *Virtual {
	return &Virtual{base: time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)}
}

// Base returns the clock's epoch: the instant Now reported before any
// time was stepped. Subtracting it from an event timestamp yields the
// event's virtual offset into the run.
func (v *Virtual) Base() time.Time { return v.base }

// vevent is one callback, armed or not, and the Timer handed out for
// it.
type vevent struct {
	c       owner
	at      int64
	seq     uint64
	fn      func()
	stopped bool
	fired   bool
	index   int // position in the heap; -1 when not in it
}

// owner is the clock a vevent was made by: Virtual or Paced.
type owner interface {
	sched() *schedule
	// armLocked (re-)arms ev to fire d from now; schedule.mu is held.
	armLocked(ev *vevent, d time.Duration)
}

type eventHeap []*vevent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*vevent)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// schedule is the deadline heap both clocks own: Virtual fires its head
// when every executor is idle, Paced when the head is due. Events
// fire in (deadline, registration) order whoever drives.
type schedule struct {
	mu     sync.Mutex
	events eventHeap
	seq    uint64
}

func (s *schedule) sched() *schedule { return s }

// pushLocked (re-)queues ev at deadline at under a fresh registration
// number, in place when it is still queued; s.mu must be held.
func (s *schedule) pushLocked(ev *vevent, at int64) {
	s.seq++
	ev.at, ev.seq = at, s.seq
	ev.stopped, ev.fired = false, false
	if ev.index >= 0 {
		heap.Fix(&s.events, ev.index)
	} else {
		heap.Push(&s.events, ev)
	}
}

// popDueLocked removes the earliest event with deadline <= limit (a
// negative limit means no bound) and marks it fired; s.mu must be held.
// It returns nil when no such event exists.
func (s *schedule) popDueLocked(limit int64) *vevent {
	for s.events.Len() > 0 {
		ev := s.events[0]
		if limit >= 0 && ev.at > limit {
			return nil
		}
		heap.Pop(&s.events)
		ev.index = -1
		if ev.stopped {
			continue
		}
		ev.fired = true
		return ev
	}
	return nil
}

func (ev *vevent) Stop() bool {
	s := ev.c.sched()
	s.mu.Lock()
	defer s.mu.Unlock()
	if ev.stopped || ev.fired {
		return false
	}
	ev.stopped = true
	if ev.index >= 0 {
		heap.Remove(&s.events, ev.index)
		ev.index = -1
	}
	return true
}

func (ev *vevent) Reset(d time.Duration) bool {
	s := ev.c.sched()
	s.mu.Lock()
	defer s.mu.Unlock()
	pending := ev.index >= 0
	ev.c.armLocked(ev, d)
	return pending
}

// PendingEvents returns the number of scheduled, unfired, unstopped
// events (for tests and diagnostics).
func (s *schedule) PendingEvents() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, ev := range s.events {
		if !ev.stopped {
			n++
		}
	}
	return n
}

// Now returns the current virtual instant.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.base.Add(time.Duration(v.now))
}

// Elapsed returns how much virtual time has passed since creation.
func (v *Virtual) Elapsed() time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return time.Duration(v.now)
}

// AfterFunc schedules fn to run after d of virtual time. The callback
// runs inline on the driver goroutine during RunFor.
func (v *Virtual) AfterFunc(d time.Duration, fn func()) Timer {
	ev := &vevent{c: v, fn: fn, index: -1}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.armLocked(ev, d)
	return ev
}

func (v *Virtual) armLocked(ev *vevent, d time.Duration) {
	v.pushLocked(ev, v.now+int64(max(d, 0)))
}

// AddBusy adds delta to the number of executors with work queued or
// running. An executor on this clock calls it, under its own lock, with
// +1 on its idle → queued edge and -1 when it goes idle again. On a nil
// Virtual (an executor on wall time) it does nothing.
func (v *Virtual) AddBusy(delta int64) {
	if v != nil {
		v.busy.Add(delta)
	}
}

// quiesce blocks until no executor on the clock has work.
func (v *Virtual) quiesce() {
	for spin := 0; v.busy.Load() > 0; spin++ {
		if spin < 256 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// popNext removes and returns the earliest runnable event with deadline
// <= limit, advancing virtual time to it. A negative limit means no
// bound. Returns nil when no such event exists.
func (v *Virtual) popNext(limit int64) func() {
	v.mu.Lock()
	defer v.mu.Unlock()
	ev := v.popDueLocked(limit)
	if ev == nil {
		return nil
	}
	if ev.at > v.now {
		v.now = ev.at
	}
	return ev.fn
}

// RunFor advances virtual time by d, firing every event that falls due,
// and returns with every executor idle and the clock exactly d later.
func (v *Virtual) RunFor(d time.Duration) {
	v.mu.Lock()
	end := v.now + int64(d)
	v.mu.Unlock()
	for {
		v.quiesce()
		fn := v.popNext(end)
		if fn == nil {
			break
		}
		fn()
	}
	v.mu.Lock()
	if v.now < end {
		v.now = end
	}
	v.mu.Unlock()
}
