package kernel

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// recorderModule appends every request/indication it handles to a
// shared executor-owned log.
type recorderModule struct {
	Base
	log *[]int
}

func (m *recorderModule) HandleRequest(_ ServiceID, req Request) {
	*m.log = append(*m.log, req.(int))
}

func (m *recorderModule) HandleIndication(_ ServiceID, ind Indication) {
	*m.log = append(*m.log, ind.(int))
}

// TestConcurrentCallIndicateCloseStress drives the typed fast-path from
// many goroutines while the stack shuts down mid-burst. Run under
// -race (CI does) it checks the two-queue batch drain for data races;
// in any mode it checks that no event is handled after the drain
// completes and nothing deadlocks.
func TestConcurrentCallIndicateCloseStress(t *testing.T) {
	for round := 0; round < 20; round++ {
		st := NewStack(Config{Addr: 0, Peers: []Addr{0}})
		var handled atomic.Int64
		countingHandler := &hookModule{Base: NewBase(st, "stress")}
		countingHandler.onReq = func(Request) { handled.Add(1) }
		countingHandler.onInd = func(Indication) { handled.Add(1) }
		if err := st.DoSync(func() {
			st.AddModule(countingHandler)
			st.Bind("svc", countingHandler)
			st.Subscribe("svc", countingHandler)
		}); err != nil {
			t.Fatal(err)
		}
		const workers = 8
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					switch i % 3 {
					case 0:
						st.Call("svc", i)
					case 1:
						st.Indicate("svc", i)
					case 2:
						st.Do(func() { handled.Add(1) })
					}
				}
			}(w)
		}
		time.Sleep(time.Millisecond)
		if round%2 == 0 {
			st.Close()
		} else {
			st.Crash()
		}
		close(stop)
		wg.Wait()
		<-st.Done()
		final := handled.Load()
		time.Sleep(500 * time.Microsecond)
		if got := handled.Load(); got != final {
			t.Fatalf("round %d: %d events handled after the executor exited", round, got-final)
		}
		if st.Running() {
			t.Fatalf("round %d: stack still running after stop", round)
		}
	}
}

// hookModule dispatches to test-provided handlers.
type hookModule struct {
	Base
	onReq func(Request)
	onInd func(Indication)
}

func (m *hookModule) HandleRequest(_ ServiceID, req Request) {
	if m.onReq != nil {
		m.onReq(req)
	}
}

func (m *hookModule) HandleIndication(_ ServiceID, ind Indication) {
	if m.onInd != nil {
		m.onInd(ind)
	}
}

// TestQuickFastPathFIFO is the quickcheck FIFO property for the typed
// executor fast-path: an arbitrary single-source interleaving of Call,
// Indicate and Do events is handled in exactly the order it was
// enqueued, across batch boundaries.
func TestQuickFastPathFIFO(t *testing.T) {
	f := func(ops []uint8) bool {
		st := NewStack(Config{Addr: 0, Peers: []Addr{0}})
		defer st.Close()
		var log []int
		rec := &recorderModule{Base: Base{}, log: &log}
		if err := st.DoSync(func() {
			rec.Base = NewBase(st, "fifo")
			st.AddModule(rec)
			st.Bind("svc", rec)
			st.Subscribe("svc", rec)
		}); err != nil {
			return false
		}
		want := make([]int, 0, len(ops))
		for i, op := range ops {
			switch op % 3 {
			case 0:
				st.Call("svc", i)
			case 1:
				st.Indicate("svc", i)
			case 2:
				i := i
				st.Do(func() { log = append(log, i) })
			}
			want = append(want, i)
		}
		if err := st.DoSync(func() {}); err != nil {
			return false
		}
		var got []int
		if err := st.DoSync(func() { got = append(got, log...) }); err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFlusherRunsAfterEachDrainedBatch gates the executor on a slow
// event so a burst queues up as one batch, then checks the registered
// flusher ran after the whole batch — the hook rbcast/rp2p coalescing
// depends on — and not between its events.
func TestFlusherRunsAfterEachDrainedBatch(t *testing.T) {
	st := NewStack(Config{Addr: 0, Peers: []Addr{0}})
	defer st.Close()
	var log []string
	if err := st.DoSync(func() {
		st.RegisterFlusher(func() {
			if n := len(log); n > 0 && log[n-1] != "flush" {
				log = append(log, "flush")
			}
		})
	}); err != nil {
		t.Fatal(err)
	}
	// Hold the executor inside a task of its own batch, so that the burst
	// queues behind it as one batch.
	gate, held := make(chan struct{}), make(chan struct{})
	st.Do(func() { close(held); <-gate })
	<-held
	const burst = 10
	for i := 0; i < burst; i++ {
		st.Do(func() { log = append(log, "event") })
	}
	close(gate)
	if err := st.DoSync(func() {}); err != nil {
		t.Fatal(err)
	}
	var snapshot []string
	if err := st.DoSync(func() { snapshot = append(snapshot, log...) }); err != nil {
		t.Fatal(err)
	}
	events := 0
	sawFlushAfterLast := false
	for i, e := range snapshot {
		if e == "event" {
			events++
			if events == burst {
				sawFlushAfterLast = i+1 < len(snapshot) && snapshot[i+1] == "flush"
			}
		}
	}
	if events != burst {
		t.Fatalf("handled %d events, want %d (log %v)", events, burst, snapshot)
	}
	if !sawFlushAfterLast {
		t.Fatalf("no flush directly after the drained batch (log %v)", snapshot)
	}
	for i := 0; i < len(snapshot)-1; i++ {
		if snapshot[i] == "event" && snapshot[i+1] == "flush" && i+2 < len(snapshot) && snapshot[i+2] == "event" {
			// A flush may legitimately separate two batches; with the
			// gate holding the executor, the burst must be ONE batch, so
			// no flush may interleave before its end.
			if i+1 < burst {
				t.Fatalf("flusher ran mid-batch at position %d (log %v)", i, snapshot)
			}
		}
	}
}

// TestFlusherArmedByAFlusherRunsLast is the shape udp's transport flush
// relies on: a flusher registered while the flushers run (armed by the
// traffic an earlier one produced) runs in the same pass, after it, and
// may unregister itself there without a later flusher being skipped.
func TestFlusherArmedByAFlusherRunsLast(t *testing.T) {
	st := NewStack(Config{Addr: 0, Peers: []Addr{0}})
	defer st.Close()
	var log []string
	var disarm func()
	armed := func() {
		log = append(log, "armed")
		disarm()
		disarm = nil
	}
	registeredC := false
	if err := st.DoSync(func() {
		st.RegisterFlusher(func() {
			log = append(log, "a")
			if disarm == nil {
				disarm = st.RegisterFlusher(armed)
			}
			if !registeredC {
				registeredC = true
				st.RegisterFlusher(func() { log = append(log, "c") })
			}
		})
	}); err != nil {
		t.Fatal(err)
	}
	var got []string
	var n int
	if err := st.DoSync(func() { got, n = append(got, log...), len(st.flushers) }); err != nil {
		t.Fatal(err)
	}
	// Pass one: a arms the flush and registers c behind it; the flush
	// unregisters itself and c still runs. Pass two: the flush, armed
	// again by a, now runs after c.
	if want := "[a armed c]"; fmt.Sprint(got) != want || n != 2 {
		t.Fatalf("first pass ran %v with %d flushers left, want %s and 2", got, n, want)
	}
	if err := st.DoSync(func() { got, n = append(got[:0], log...), len(st.flushers) }); err != nil {
		t.Fatal(err)
	}
	if want := "[a armed c a c armed]"; fmt.Sprint(got) != want || n != 2 {
		t.Fatalf("two passes ran %v with %d flushers left, want %s and 2", got, n, want)
	}
}

// TestListenersCopyOnWriteDuringIndication mutates the subscription
// list from inside a handler: the in-flight indication must keep the
// snapshot it started with (old listeners still get it; a listener
// added mid-indication does not), and nothing panics.
func TestListenersCopyOnWriteDuringIndication(t *testing.T) {
	st := NewStack(Config{Addr: 0, Peers: []Addr{0}})
	defer st.Close()
	var aGot, bGot, cGot int
	if err := st.DoSync(func() {
		b := &hookModule{Base: NewBase(st, "b")}
		c := &hookModule{Base: NewBase(st, "c")}
		c.onInd = func(Indication) { cGot++ }
		b.onInd = func(Indication) { bGot++ }
		a := &hookModule{Base: NewBase(st, "a")}
		a.onInd = func(Indication) {
			aGot++
			st.Unsubscribe("svc", b) // b was in the starting snapshot: still served
			st.Subscribe("svc", c)   // c joins only for subsequent indications
		}
		for _, m := range []Module{a, b, c} {
			st.AddModule(m)
		}
		st.Subscribe("svc", a)
		st.Subscribe("svc", b)
	}); err != nil {
		t.Fatal(err)
	}
	st.Indicate("svc", 1)
	if err := st.DoSync(func() {}); err != nil {
		t.Fatal(err)
	}
	if aGot != 1 || bGot != 1 || cGot != 0 {
		t.Fatalf("first indication reached a=%d b=%d c=%d, want 1,1,0", aGot, bGot, cGot)
	}
	st.Indicate("svc", 2)
	if err := st.DoSync(func() {}); err != nil {
		t.Fatal(err)
	}
	if aGot != 2 || bGot != 1 || cGot != 1 {
		t.Fatalf("second indication reached a=%d b=%d c=%d, want 2,1,1", aGot, bGot, cGot)
	}
}
