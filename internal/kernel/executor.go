package kernel

import (
	"sync"
	"sync/atomic"

	"repro/internal/vclock"
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
// tasks drained in batches by the stack's own goroutine, with the
// stack's flushers run after every batch (see Stack.RegisterFlusher).
// Unboundedness matters: module code enqueues follow-up events while
// the executor is busy, and a bounded channel would deadlock the loop
// against itself. Each batch swaps the whole queue out under one lock
// acquisition and runs it from a local slice, so N queued events cost
// one lock round-trip instead of N.
type executor struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []task
	spare    []task // recycled batch storage, swapped back under the lock
	accepted uint64 // monotonic count of enqueued tasks (kernel.tasks_per_msg)
	busy     bool   // a batch is being drained or flushed
	stopped  bool
	drain    bool
	killed   atomic.Bool // crash: discard remaining batch events too
	done     chan struct{}
	runTask  func(*task)
	flush    func()
	vc       *vclock.Virtual // counts e while len(queue) > 0 || busy; nil on wall time
}

func newExecutor(runTask func(*task), flush func(), vc *vclock.Virtual) *executor {
	e := &executor{done: make(chan struct{}), runTask: runTask, flush: flush, vc: vc}
	e.cond = sync.NewCond(&e.mu)
	go e.run()
	return e
}

// do enqueues fn; reports false when the executor no longer accepts work.
func (e *executor) do(fn func()) bool {
	return e.enqueue(task{kind: kindFn, fn: fn})
}

// enqueue appends a task; reports false when the executor has stopped.
// It signals the loop only on the empty->non-empty transition: the loop
// re-checks the queue under the lock before it waits.
func (e *executor) enqueue(t task) bool {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return false
	}
	first := len(e.queue) == 0
	if first && !e.busy {
		e.vc.AddBusy(1)
	}
	e.queue = append(e.queue, t)
	e.accepted++
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
// discarded.
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
		if len(e.queue) > 0 && !e.busy {
			e.vc.AddBusy(-1)
		}
		e.queue = nil
	}
	e.mu.Unlock()
	e.cond.Signal()
}

// wait blocks until the executor's goroutine has exited. Must not be
// called from the executor itself.
func (e *executor) wait() { <-e.done }

func (e *executor) running() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return !e.stopped
}

// queueState reports the monotonic count of tasks ever accepted and
// whether the loop is idle (nothing queued, no batch in flight), for
// kernel.tasks_per_msg.
func (e *executor) queueState() (uint64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.accepted, len(e.queue) == 0 && !e.busy
}

// run is the loop: park on the cond var while idle, swap the queue out
// and run it, then the flushers. It holds e.mu everywhere but inside a
// batch, and it alone closes done — once stopped and, when draining,
// empty.
func (e *executor) run() {
	e.mu.Lock()
	for {
		for len(e.queue) == 0 && !e.stopped {
			e.cond.Wait()
		}
		if e.stopped && (!e.drain || len(e.queue) == 0) {
			e.queue, e.spare = nil, nil
			e.mu.Unlock()
			close(e.done)
			return
		}
		batch := e.queue
		e.queue, e.spare = e.spare, nil
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
		if len(e.queue) == 0 {
			e.vc.AddBusy(-1)
		}
	}
}
