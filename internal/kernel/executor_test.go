package kernel

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStopRacingEnqueueClosesDone checks the shutdown liveness
// contract: whatever the interleaving of enqueue and stop, the loop
// exits and closes done, so wait() returns. The races sit in gaps too
// narrow to force from a test, so this is a stress check of the
// invariant, not a deterministic reproduction; a hang is the failure,
// bounded by the test binary's timeout.
func TestStopRacingEnqueueClosesDone(t *testing.T) {
	for i := 0; i < 2000; i++ {
		e := newExecutor(func(*task) {}, func() {}, nil)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				e.do(func() {})
			}
		}()
		go func() {
			defer wg.Done()
			e.stop(i%2 == 0) // alternate drain and kill
		}()
		wg.Wait()
		e.wait()
	}
}

// TestIndicateBatchOrdering checks that one batched indication event is
// observationally identical to its unbatched expansion: listeners see
// every indication individually, in slice order, correctly interleaved
// with surrounding plain Indicates. It runs twice: "dedicated" posts to
// an idle executor goroutine, which takes each event as it arrives;
// "drained" parks the executor first, so all the events queue up and
// come out of one drained batch.
func TestIndicateBatchOrdering(t *testing.T) {
	for _, parked := range []bool{false, true} {
		name := "dedicated"
		if parked {
			name = "drained"
		}
		t.Run(name, func(t *testing.T) {
			st := newTestStack(t, nil)
			var a, b *testModule
			st.DoSync(func() {
				a = newTestModule(st, "a")
				b = newTestModule(st, "b")
				st.AddModule(a)
				st.AddModule(b)
				st.Subscribe("svc", a)
				st.Subscribe("svc", b)
			})
			release := make(chan struct{})
			if parked {
				block := make(chan struct{})
				st.Do(func() { close(block); <-release })
				<-block
			}
			st.Indicate("svc", "pre")
			st.IndicateBatch("svc", []Indication{"x0", "x1", "x2"})
			st.IndicateBatch("svc", nil) // empty batch: no event at all
			st.Indicate("svc", "post")
			close(release)
			want := []Indication{"pre", "x0", "x1", "x2", "post"}
			st.DoSync(func() {
				for _, m := range []*testModule{a, b} {
					if fmt.Sprint(m.indications) != fmt.Sprint(want) {
						t.Errorf("indications = %v, want %v", m.indications, want)
					}
				}
			})
		})
	}
}

// TestIndicateBatchSingleQueueEvent checks the point of batching: a
// batch of N indications crosses the executor queue as ONE task (one
// flusher pass), not N.
func TestIndicateBatchSingleQueueEvent(t *testing.T) {
	st := newTestStack(t, nil)
	var flushes atomic.Int64
	var seen int
	var m *testModule
	st.DoSync(func() {
		m = newTestModule(st, "m")
		st.AddModule(m)
		st.Subscribe("svc", m)
		st.RegisterFlusher(func() { flushes.Add(1) })
	})
	// Park the executor so everything below lands in one drained batch.
	block := make(chan struct{})
	release := make(chan struct{})
	st.Do(func() { close(block); <-release })
	<-block
	st.IndicateBatch("svc", []Indication{1, 2, 3, 4, 5})
	close(release)
	st.DoSync(func() {})
	st.DoSync(func() { seen = len(m.indications) })
	if seen != 5 {
		t.Fatalf("listener saw %d indications, want 5", seen)
	}
	// The batch plus the parked Do drained together: at most a handful
	// of flusher passes, nowhere near one per indication.
	if got := flushes.Load(); got > 4 {
		t.Fatalf("%d flusher passes for one 5-indication batch", got)
	}
}
