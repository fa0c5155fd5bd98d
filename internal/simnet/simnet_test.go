package simnet

import (
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/vclock"
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
	vc := vclock.NewVirtual()
	n := New(Config{BaseLatency: time.Millisecond, Clock: vc})
	defer n.Close()
	var at []time.Duration // the virtual clock's driver (this goroutine) only
	e0, _ := n.Open(0, func(Addr, []byte) {})
	n.Open(1, func(Addr, []byte) { at = append(at, vc.Elapsed()) })
	e0.Send(1, []byte{1})
	vc.RunFor(2 * time.Millisecond)
	n.Update(func(c *Config) { c.BaseLatency = 10 * time.Millisecond })
	e0.Send(1, []byte{2})
	vc.RunFor(20 * time.Millisecond)
	want := []time.Duration{time.Millisecond, 12 * time.Millisecond}
	if fmt.Sprint(at) != fmt.Sprint(want) {
		t.Errorf("arrivals at %v, want %v (latency 10ms after the update)", at, want)
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	run := func(seed int64) string {
		vc := vclock.NewVirtual()
		n := New(Config{Seed: seed, BaseLatency: time.Millisecond, Jitter: time.Millisecond, Clock: vc})
		defer n.Close()
		var b strings.Builder
		e0, _ := n.Open(0, func(Addr, []byte) {})
		n.Open(1, func(_ Addr, data []byte) { fmt.Fprintf(&b, "%d@%v ", data[0], vc.Elapsed()) })
		for i := 0; i < 100; i++ {
			e0.Send(1, []byte{byte(i)})
			vc.RunFor(100 * time.Microsecond)
		}
		vc.RunFor(10 * time.Millisecond)
		return b.String()
	}
	a := run(99)
	if b := run(99); a != b {
		t.Errorf("same seed, different arrivals:\n%s\n%s", a, b)
	}
	if c := run(100); a == c {
		t.Error("different seeds, identical jitter draws")
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
