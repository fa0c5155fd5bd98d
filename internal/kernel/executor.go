package kernel

import (
	"sync"
	"sync/atomic"
)

// task is one queued executor event. The hot paths (Call, Indicate,
// timer firings) enqueue a small typed struct instead of allocating a
// fresh closure per event; Do still carries a closure.
type task struct {
	kind byte
	svc  ServiceID
	arg  any    // request or indication payload, pre-boxed by the caller
	fn   func() // kindFn only
}

const (
	kindFn byte = iota
	kindCall
	kindIndicate
	kindIndicateBatch // arg is []Indication, delivered in order
	kindTimer         // arg is the *Timer that fired
)

// executor is the serial event loop of one stack: an unbounded FIFO of
// tasks drained in batches, with the stack's flushers run after every
// batch (see Stack.RegisterFlusher). Unboundedness matters: module code
// enqueues follow-up events while the executor is busy, and a bounded
// channel would deadlock the loop against itself.
//
// The executor runs in one of two modes, fixed at construction:
//
//   - Dedicated (pool == nil): a goroutine per stack, parked on a cond
//     var while idle. The original mode; best for a handful of stacks.
//
//   - Pooled (pool != nil): no goroutine of its own. When the queue
//     goes non-empty the executor is submitted to a kernel.Pool, whose
//     workers call slice() — at most one worker owns the executor at a
//     time (the scheduled flag), so per-stack serialization is exactly
//     the dedicated mode's, while independent stacks run on however
//     many cores the pool has. A long-running stack yields the worker
//     back after poolSlicePasses batches so co-scheduled stacks are
//     never starved.
//
// Both modes drain in batches: the whole queue is swapped out under one
// lock acquisition and run from a local slice, so N queued events cost
// one lock round-trip instead of N.
type executor struct {
	mu       sync.Mutex
	cond     *sync.Cond // dedicated mode only
	queue    []task
	spare    []task // recycled batch storage, swapped back under the lock
	accepted uint64 // monotonic count of enqueued tasks (quiescence detection)
	busy     bool   // a batch is being drained or flushed
	stopped  bool
	drain    bool
	killed   atomic.Bool // crash: discard remaining batch events too
	done     chan struct{}
	doneOnce sync.Once
	runTask  func(*task)
	flush    func()

	pool      *Pool
	scheduled bool // pooled mode: a slice() is queued on the pool or running
}

// poolSlicePasses bounds how many batches one pool slice drains before
// yielding the worker, so a stack under sustained load cannot starve
// its pool-mates.
const poolSlicePasses = 8

func newExecutor(runTask func(*task), flush func(), pool *Pool) *executor {
	e := &executor{done: make(chan struct{}), runTask: runTask, flush: flush, pool: pool}
	if pool == nil {
		e.cond = sync.NewCond(&e.mu)
		go e.run()
	}
	return e
}

// do enqueues fn; reports false when the executor no longer accepts work.
func (e *executor) do(fn func()) bool {
	return e.enqueue(task{kind: kindFn, fn: fn})
}

// enqueue appends a task; reports false when the executor has stopped.
// Dedicated mode signals the loop only on the empty->non-empty
// transition (it re-checks the queue under the lock before waiting);
// pooled mode submits the executor to the pool on the idle->scheduled
// transition, so a busy or already-queued executor costs no pool
// traffic.
func (e *executor) enqueue(t task) bool {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return false
	}
	e.queue = append(e.queue, t)
	e.accepted++
	if e.pool != nil {
		submit := !e.scheduled
		if submit {
			e.scheduled = true
		}
		e.mu.Unlock()
		if submit {
			e.pool.submit(e)
		}
		return true
	}
	first := len(e.queue) == 1
	e.mu.Unlock()
	if first {
		e.cond.Signal()
	}
	return true
}

// stop halts the loop and returns without waiting, so it is safe to
// call from an event running on the executor itself. With drain=true,
// already-queued events still run; with drain=false (crash) the queue —
// including the not-yet-run remainder of an in-flight batch — is
// discarded. In pooled mode an idle executor is submitted once more so
// a slice observes the stop and closes done.
func (e *executor) stop(drain bool) {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	e.stopped = true
	e.drain = drain
	if !drain {
		e.killed.Store(true)
		e.queue = nil
	}
	if e.pool != nil {
		submit := !e.scheduled
		if submit {
			e.scheduled = true
		}
		e.mu.Unlock()
		if submit {
			e.pool.submit(e)
		}
		return
	}
	e.mu.Unlock()
	e.cond.Signal()
}

// wait blocks until the executor has fully stopped (its goroutine
// exited, or — pooled — its final slice completed). Must not be called
// from the executor itself.
func (e *executor) wait() { <-e.done }

func (e *executor) running() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return !e.stopped
}

// queueState reports the monotonic count of tasks ever accepted and
// whether the loop is idle (nothing queued, no batch in flight). A
// stopped executor reports idle once its final batch drains, so virtual
// clocks never wait on dead stacks.
func (e *executor) queueState() (uint64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.accepted, len(e.queue) == 0 && !e.busy
}

// drainBatch swaps the queue out and runs it, then runs the flushers.
// Returns false when there was nothing to drain or the executor is
// finished (stopped and drained). Both modes' loops are built on it.
// The caller must NOT hold e.mu.
func (e *executor) drainBatch() (again bool) {
	e.mu.Lock()
	if e.stopped && (!e.drain || len(e.queue) == 0) {
		e.queue, e.spare = nil, nil
		e.busy = false
		e.mu.Unlock()
		e.doneOnce.Do(func() { close(e.done) })
		return false
	}
	if len(e.queue) == 0 {
		e.busy = false
		e.mu.Unlock()
		return false
	}
	batch := e.queue
	e.queue = e.spare
	e.spare = nil
	e.busy = true
	e.mu.Unlock()

	for i := range batch {
		if e.killed.Load() {
			break
		}
		e.runTask(&batch[i])
	}
	// Release payload/closure references before the storage is
	// recycled, whether the batch completed or a crash cut it short.
	clear(batch)
	if !e.killed.Load() {
		e.flush()
	}
	e.mu.Lock()
	e.spare = batch[:0]
	e.busy = false
	e.mu.Unlock()
	return true
}

// run is the dedicated-mode loop: drain batches, park on the cond var
// when idle, exit once stopped (and, when draining, empty).
func (e *executor) run() {
	for {
		e.mu.Lock()
		for len(e.queue) == 0 && !e.stopped {
			e.cond.Wait()
		}
		e.mu.Unlock()
		if !e.drainBatch() {
			e.mu.Lock()
			finished := e.stopped && (!e.drain || len(e.queue) == 0)
			e.mu.Unlock()
			if finished {
				e.doneOnce.Do(func() { close(e.done) })
				return
			}
		}
	}
}

// slice is one pool worker's turn at this executor: up to
// poolSlicePasses batches, then the worker goes back to the pool. If
// work remains (or arrived during the last batch) the executor re-queues
// itself; otherwise it clears scheduled so the next enqueue submits it
// again. Exactly one worker runs slice at a time — the scheduled flag
// is the ownership token, handed back only here or at enqueue/stop.
func (e *executor) slice() {
	for pass := 0; pass < poolSlicePasses; pass++ {
		if !e.drainBatch() {
			e.mu.Lock()
			if e.stopped && (!e.drain || len(e.queue) == 0) {
				e.mu.Unlock()
				// drainBatch's finished branch usually closed done, but
				// stop() may have landed between drainBatch releasing the
				// lock in its empty-queue branch and the re-lock above —
				// then no further slice is ever submitted, so done must be
				// closed here or wait() hangs. doneOnce dedupes the two
				// paths. scheduled stays set — a stopped executor is never
				// resubmitted.
				e.doneOnce.Do(func() { close(e.done) })
				return
			}
			if len(e.queue) == 0 {
				e.scheduled = false
				e.mu.Unlock()
				return
			}
			e.mu.Unlock()
		}
	}
	// Passes exhausted with (possibly) work left: yield the worker and
	// take a place at the back of the pool's run queue.
	e.mu.Lock()
	requeue := len(e.queue) > 0 || e.stopped
	if !requeue {
		e.scheduled = false
	}
	e.mu.Unlock()
	if requeue {
		e.pool.yield(e)
	}
}
