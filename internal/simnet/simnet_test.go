package simnet

import (
	"encoding/binary"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collector gathers delivered packets.
type collector struct {
	mu   sync.Mutex
	got  [][]byte
	from []Addr
	ch   chan struct{}
}

func newCollector() *collector {
	return &collector{ch: make(chan struct{}, 1024)}
}

func (c *collector) recv(from Addr, data []byte) {
	c.mu.Lock()
	c.got = append(c.got, data)
	c.from = append(c.from, from)
	c.mu.Unlock()
	c.ch <- struct{}{}
}

func (c *collector) wait(t *testing.T, n int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-c.ch:
		case <-deadline:
			t.Fatalf("timed out waiting for %d packets (got %d)", n, i)
		}
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func TestBasicDelivery(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	c := newCollector()
	a, err := n.Open(0, func(Addr, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Open(1, c.recv); err != nil {
		t.Fatal(err)
	}
	a.Send(1, []byte("hi"))
	c.wait(t, 1)
	if string(c.got[0]) != "hi" || c.from[0] != 0 {
		t.Errorf("got %q from %d", c.got[0], c.from[0])
	}
	st := n.Stats()
	if st.Sent != 1 || st.Delivered != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDataIsCopiedOnSend(t *testing.T) {
	n := New(Config{BaseLatency: 5 * time.Millisecond})
	defer n.Close()
	c := newCollector()
	a, _ := n.Open(0, func(Addr, []byte) {})
	n.Open(1, c.recv)
	buf := []byte("original")
	a.Send(1, buf)
	copy(buf, "MUTATED!")
	c.wait(t, 1)
	if string(c.got[0]) != "original" {
		t.Errorf("delivered %q; sender mutation leaked", c.got[0])
	}
}

func TestSelfSendUsesLoopback(t *testing.T) {
	n := New(Config{BaseLatency: time.Hour}) // would time out if used
	defer n.Close()
	c := newCollector()
	ep, _ := n.Open(0, c.recv)
	ep.Send(0, []byte("self"))
	c.wait(t, 1)
}

func TestLatencyIsApplied(t *testing.T) {
	const lat = 50 * time.Millisecond
	n := New(Config{BaseLatency: lat})
	defer n.Close()
	c := newCollector()
	a, _ := n.Open(0, func(Addr, []byte) {})
	n.Open(1, c.recv)
	start := time.Now()
	a.Send(1, []byte("x"))
	c.wait(t, 1)
	if el := time.Since(start); el < lat {
		t.Errorf("delivered after %v, want >= %v", el, lat)
	}
}

func TestBandwidthAddsSizeProportionalDelay(t *testing.T) {
	// 1 Mbps: a 12500-byte packet costs 100 ms of transmission delay.
	n := New(Config{BandwidthBps: 1e6})
	defer n.Close()
	c := newCollector()
	a, _ := n.Open(0, func(Addr, []byte) {})
	n.Open(1, c.recv)
	start := time.Now()
	a.Send(1, make([]byte, 12500))
	c.wait(t, 1)
	if el := time.Since(start); el < 90*time.Millisecond {
		t.Errorf("delivered after %v, want ~100ms", el)
	}
}

func TestLossRateDropsRoughlyTheRightFraction(t *testing.T) {
	n := New(Config{Seed: 42, LossRate: 0.5})
	defer n.Close()
	var delivered atomic.Int64
	a, _ := n.Open(0, func(Addr, []byte) {})
	n.Open(1, func(Addr, []byte) { delivered.Add(1) })
	const total = 2000
	for i := 0; i < total; i++ {
		a.Send(1, []byte{1})
	}
	time.Sleep(100 * time.Millisecond)
	got := delivered.Load()
	if got < total*3/10 || got > total*7/10 {
		t.Errorf("delivered %d of %d with 50%% loss; outside [30%%,70%%]", got, total)
	}
	st := n.Stats()
	if st.Dropped == 0 {
		t.Error("no drops recorded")
	}
	if st.Dropped+uint64(got) != total {
		t.Errorf("dropped %d + delivered %d != %d", st.Dropped, got, total)
	}
}

func TestDuplication(t *testing.T) {
	n := New(Config{Seed: 7, DupRate: 1.0})
	defer n.Close()
	var delivered atomic.Int64
	a, _ := n.Open(0, func(Addr, []byte) {})
	n.Open(1, func(Addr, []byte) { delivered.Add(1) })
	a.Send(1, []byte{1})
	time.Sleep(50 * time.Millisecond)
	if got := delivered.Load(); got != 2 {
		t.Errorf("delivered %d, want 2 (dup rate 1.0)", got)
	}
}

func TestCutBlocksBothDirectionsAndHealRestores(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	c0, c1 := newCollector(), newCollector()
	e0, _ := n.Open(0, c0.recv)
	e1, _ := n.Open(1, c1.recv)
	n.Cut(0, 1)
	e0.Send(1, []byte("a"))
	e1.Send(0, []byte("b"))
	time.Sleep(30 * time.Millisecond)
	if c0.count() != 0 || c1.count() != 0 {
		t.Error("packets crossed a cut link")
	}
	n.Heal(0, 1)
	e0.Send(1, []byte("c"))
	c1.wait(t, 1)
}

func TestIsolateCutsAllLinks(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	c := newCollector()
	e0, _ := n.Open(0, func(Addr, []byte) {})
	e1, _ := n.Open(1, func(Addr, []byte) {})
	n.Open(2, c.recv)
	n.Isolate(2)
	e0.Send(2, []byte("x"))
	e1.Send(2, []byte("y"))
	time.Sleep(30 * time.Millisecond)
	if c.count() != 0 {
		t.Error("isolated node received packets")
	}
}

func TestDownEndpointDropsTraffic(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	c := newCollector()
	e0, _ := n.Open(0, c.recv)
	e1, _ := n.Open(1, c.recv)
	n.SetDown(1, true)
	e0.Send(1, []byte("to-down"))   // to a down node
	e1.Send(0, []byte("from-down")) // from a down node
	time.Sleep(30 * time.Millisecond)
	if c.count() != 0 {
		t.Error("down endpoint exchanged traffic")
	}
	n.SetDown(1, false)
	e1.Send(0, []byte("recovered"))
	c.wait(t, 1)
}

func TestInFlightPacketDroppedWhenLinkCutDuringFlight(t *testing.T) {
	n := New(Config{BaseLatency: 60 * time.Millisecond})
	defer n.Close()
	c := newCollector()
	e0, _ := n.Open(0, func(Addr, []byte) {})
	n.Open(1, c.recv)
	e0.Send(1, []byte("x"))
	n.Cut(0, 1) // cut while the packet is in flight
	time.Sleep(150 * time.Millisecond)
	if c.count() != 0 {
		t.Error("in-flight packet survived a cut")
	}
}

func TestCloseCancelsInFlight(t *testing.T) {
	n := New(Config{BaseLatency: 60 * time.Millisecond})
	c := newCollector()
	e0, _ := n.Open(0, func(Addr, []byte) {})
	n.Open(1, c.recv)
	e0.Send(1, []byte("x"))
	n.Close()
	time.Sleep(120 * time.Millisecond)
	if c.count() != 0 {
		t.Error("packet delivered after Close")
	}
	if _, err := n.Open(2, c.recv); err != ErrClosed {
		t.Errorf("Open after Close: err = %v, want ErrClosed", err)
	}
}

func TestDuplicateOpenRejected(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	if _, err := n.Open(0, func(Addr, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Open(0, func(Addr, []byte) {}); err == nil {
		t.Error("duplicate Open succeeded")
	}
}

func TestPerLinkLatencyOverride(t *testing.T) {
	n := New(Config{BaseLatency: time.Millisecond})
	defer n.Close()
	c := newCollector()
	e0, _ := n.Open(0, func(Addr, []byte) {})
	n.Open(1, c.recv)
	n.SetLinkLatency(0, 1, 80*time.Millisecond)
	start := time.Now()
	e0.Send(1, []byte("slow"))
	c.wait(t, 1)
	if el := time.Since(start); el < 70*time.Millisecond {
		t.Errorf("override ignored: delivered after %v", el)
	}
}

func TestUpdateConfigMidRun(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	var delivered atomic.Int64
	e0, _ := n.Open(0, func(Addr, []byte) {})
	n.Open(1, func(Addr, []byte) { delivered.Add(1) })
	e0.Send(1, []byte{1})
	time.Sleep(20 * time.Millisecond)
	n.Update(func(c *Config) { c.LossRate = 1.0 })
	for i := 0; i < 20; i++ {
		e0.Send(1, []byte{1})
	}
	time.Sleep(30 * time.Millisecond)
	if got := delivered.Load(); got != 1 {
		t.Errorf("delivered %d, want 1 (loss=1.0 after update)", got)
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	run := func(seed int64) []bool {
		n := New(Config{Seed: seed, LossRate: 0.5})
		defer n.Close()
		var mu sync.Mutex
		fates := make([]bool, 0, 100)
		e0, _ := n.Open(0, func(Addr, []byte) {})
		n.Open(1, func(_ Addr, data []byte) {
			mu.Lock()
			fates = append(fates, true)
			mu.Unlock()
		})
		for i := 0; i < 100; i++ {
			e0.Send(1, []byte{byte(i)})
			time.Sleep(100 * time.Microsecond) // keep delivery order stable
		}
		time.Sleep(50 * time.Millisecond)
		mu.Lock()
		defer mu.Unlock()
		return fates
	}
	a, b := run(99), run(99)
	if len(a) != len(b) {
		t.Errorf("same seed, different delivery counts: %d vs %d", len(a), len(b))
	}
}

func TestStatsByteCounting(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	c := newCollector()
	e0, _ := n.Open(0, func(Addr, []byte) {})
	n.Open(1, c.recv)
	e0.Send(1, make([]byte, 100))
	e0.Send(1, make([]byte, 28))
	c.wait(t, 2)
	if st := n.Stats(); st.Bytes != 128 {
		t.Errorf("Bytes = %d, want 128", st.Bytes)
	}
}

// Two packets sent back to back on a zero-jitter link are due a few µs
// apart. One runtime timer per packet ran each delivery on a goroutine
// of its own and let the second overtake the first; the wall-time pacer
// delivers in (deadline, send order).
func TestWallClockLinkIsFIFO(t *testing.T) {
	const packets = 2000
	n := New(Config{BaseLatency: 200 * time.Microsecond})
	defer n.Close()
	var got []uint16 // pacer goroutine only, until done is closed
	done := make(chan struct{})
	a, err := n.Open(0, func(Addr, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Open(1, func(_ Addr, data []byte) {
		got = append(got, binary.BigEndian.Uint16(data))
		if len(got) == packets {
			close(done)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < packets; i++ {
		a.Send(1, binary.BigEndian.AppendUint16(nil, uint16(i)))
	}
	<-done
	for i, seq := range got {
		if int(seq) != i {
			t.Fatalf("packet %d arrived in position %d", seq, i)
		}
	}
}

// openDescriptors counts the process's open descriptors; ok is false
// where /proc does not say.
func openDescriptors() (n int, ok bool) {
	ents, err := os.ReadDir("/proc/self/fd")
	return len(ents), err == nil
}

// A network on wall time starts its pacer with the first packet and
// Close gives everything back: goroutine, thread and wake pipe.
func TestCloseReleasesThePacer(t *testing.T) {
	cycle := func(i int) {
		n := New(Config{BaseLatency: time.Hour})
		a, err := n.Open(0, func(Addr, []byte) {})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Open(1, func(Addr, []byte) { t.Error("a packet an hour away was delivered") }); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			a.Send(0, []byte("loopback")) // LoopbackLatency 0: delivered, or dropped by Close
		}
		a.Send(1, []byte("pending at Close"))
		n.Close()
	}
	cycle(0) // whatever the first use of anything allocates is not a leak
	goroutines := runtime.NumGoroutine()
	fds, countFDs := openDescriptors()
	for i := 0; i < 200; i++ {
		cycle(i)
	}
	New(Config{}).Close() // never sent: nothing was started
	// Close returns when the pacer has run its last statement, which is
	// an instant before the runtime stops counting it.
	for i := 0; i < 1000 && runtime.NumGoroutine() > goroutines; i++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > goroutines {
		t.Errorf("%d goroutines before, %d after 200 networks", goroutines, after)
	}
	if after, _ := openDescriptors(); countFDs && after != fds {
		t.Errorf("%d descriptors before, %d after 200 networks", fds, after)
	}
}
