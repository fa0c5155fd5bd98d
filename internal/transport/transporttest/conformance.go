// Package transporttest provides shared helpers for tests that run
// transport backends on the loopback interface, and a backend-agnostic
// conformance suite that pins the Transport contract (best-effort
// delivery, payload limits, Enqueue/Flush batches and their bodies,
// close-during-send safety, the optional Router extension and Faulty
// wrapping) across Sim, UDP and TCP.
//
// Because this package imports internal/transport, the transport
// package's own IN-PACKAGE tests must not import it (that would be an
// import cycle); they keep a local copy of the port-reservation helper,
// and the conformance suite is invoked from external (package
// transport_test) files.
package transporttest

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// ReserveAddrs binds n ephemeral loopback UDP ports, releases them and
// returns their "host:port" addresses in order — the raw material for
// an address book keyed by small integer group addresses. The tiny
// window in which another process could grab a released port is
// acceptable in tests.
func ReserveAddrs(t testing.TB, n int) []string {
	t.Helper()
	addrs := make([]string, 0, n)
	conns := make([]*net.UDPConn, 0, n)
	for i := 0; i < n; i++ {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		conns = append(conns, c)
		addrs = append(addrs, c.LocalAddr().String())
	}
	for _, c := range conns {
		c.Close()
	}
	return addrs
}

// ReserveStreamAddrs is ReserveAddrs for stream backends: it reserves
// ephemeral loopback TCP ports.
func ReserveStreamAddrs(t testing.TB, n int) []string {
	t.Helper()
	addrs := make([]string, 0, n)
	ls := make([]net.Listener, 0, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		ls = append(ls, l)
		addrs = append(addrs, l.Addr().String())
	}
	for _, l := range ls {
		l.Close()
	}
	return addrs
}

// Factory builds a fresh, isolated transport whose fabric (or address
// book) covers every address in addrs. Each conformance subtest calls
// it once; the suite closes the transport itself.
type Factory func(t testing.TB, addrs []transport.Addr) transport.Transport

// Conformance describes one backend under the contract suite. The
// boolean knobs encode where the Transport contract leaves backends
// room to differ; everything else is asserted identically.
type Conformance struct {
	// New builds the backend.
	New Factory
	// Reserve reserves loopback "host:port" strings routable by this
	// backend, for the Router subtest. nil skips Router coverage (the
	// simulated fabric has implicit routing).
	Reserve func(t testing.TB, n int) []string
	// Ordered asserts per-pair FIFO: what arrives from one peer arrives
	// in send order with no duplicates. True for stream backends; a
	// datagram contract permits reordering, so the suite only checks
	// delivery there.
	Ordered bool
	// Reliable asserts loopback delivery without resend: every accepted
	// Send arrives. Stream backends and the fault-free simulator are
	// reliable; real UDP under burst load may shed datagrams, so the
	// suite retries sends instead.
	Reliable bool
	// DeliverPayload is a payload size that must round-trip (pick the
	// backend's documented ceiling). Zero skips the large-payload probe.
	DeliverPayload int
	// DropPayload is a payload size the backend must DROP silently —
	// no delivery, no error, no wedged endpoint. Zero skips the probe.
	DropPayload int
}

// Run executes the conformance suite as subtests of t.
func (c Conformance) Run(t *testing.T) {
	t.Run("Loopback", c.loopback)
	t.Run("Ordering", c.ordering)
	t.Run("PayloadLimits", c.payloadLimits)
	t.Run("Batch", c.batch)
	t.Run("Body", c.body)
	t.Run("CloseDuringSend", c.closeDuringSend)
	t.Run("Router", c.router)
	t.Run("FaultyWrap", c.faultyWrap)
}

// sink collects deliveries for one endpoint.
type sink struct {
	mu   sync.Mutex
	msgs []transport.Packet
}

func (s *sink) recv(pkts []transport.Packet) {
	s.mu.Lock()
	s.msgs = append(s.msgs, pkts...)
	s.mu.Unlock()
}

// discard is the receiver of endpoints that only send.
func discard([]transport.Packet) {}

// pair opens endpoint 1, which only sends, and endpoint 2, whose
// deliveries the returned sink collects.
func pair(t *testing.T, tr transport.Transport) (transport.Endpoint, *sink) {
	t.Helper()
	ep1, err := tr.OpenBatch(1, discard)
	if err != nil {
		t.Fatalf("open 1: %v", err)
	}
	s := new(sink)
	if _, err := tr.OpenBatch(2, s.recv); err != nil {
		t.Fatalf("open 2: %v", err)
	}
	return ep1, s
}

func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.msgs)
}

func (s *sink) snapshot() []transport.Packet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]transport.Packet(nil), s.msgs...)
}

// waitFor polls cond (≈1ms cadence) until it holds or the deadline
// passes, reporting whether it held. Transports deliver asynchronously,
// so every assertion about arrival goes through here.
func waitFor(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

const arrival = 10 * time.Second

// deliver sends payload until it shows up in s (a single send for
// reliable backends), failing the test on timeout.
func (c Conformance) deliver(t *testing.T, ep transport.Endpoint, to transport.Addr, s *sink, payload []byte, what string) {
	t.Helper()
	has := func() bool {
		for _, p := range s.snapshot() {
			if bytes.Equal(p.Data, payload) {
				return true
			}
		}
		return false
	}
	if c.Reliable {
		ep.Send(to, payload)
		if !waitFor(arrival, has) {
			t.Fatalf("%s: payload never delivered on a reliable backend", what)
		}
		return
	}
	deadline := time.Now().Add(arrival)
	for time.Now().Before(deadline) {
		ep.Send(to, payload)
		if waitFor(50*time.Millisecond, has) {
			return
		}
	}
	t.Fatalf("%s: payload never delivered (with resends)", what)
}

func (c Conformance) loopback(t *testing.T) {
	tr := c.New(t, []transport.Addr{1, 2})
	defer tr.Close()
	var s1, s2 sink
	ep1, err := tr.OpenBatch(1, s1.recv)
	if err != nil {
		t.Fatalf("open 1: %v", err)
	}
	ep2, err := tr.OpenBatch(2, s2.recv)
	if err != nil {
		t.Fatalf("open 2: %v", err)
	}
	if got := ep1.Addr(); got != 1 {
		t.Fatalf("ep1.Addr() = %d, want 1", got)
	}
	c.deliver(t, ep1, 2, &s2, []byte("hello from 1"), "1->2")
	c.deliver(t, ep2, 1, &s1, []byte("hello from 2"), "2->1")
	for _, p := range s2.snapshot() {
		if p.From != 1 {
			t.Fatalf("endpoint 2 got a packet attributed to %d, want 1", p.From)
		}
	}
	// Opening an already-open address must fail rather than hijack it.
	if _, err := tr.OpenBatch(1, s1.recv); err == nil {
		t.Fatalf("second OpenBatch(1) succeeded; want error")
	}
}

func (c Conformance) ordering(t *testing.T) {
	tr := c.New(t, []transport.Addr{1, 2})
	defer tr.Close()
	ep1, s := pair(t, tr)
	// Establish the path first so unreliable backends do not shed the
	// burst's head while (e.g.) ARP or connection setup completes.
	c.deliver(t, ep1, 2, s, []byte("warmup"), "warmup")
	const n = 100
	for i := 0; i < n; i++ {
		ep1.Send(2, []byte(fmt.Sprintf("seq-%04d", i)))
	}
	if c.Reliable {
		if !waitFor(arrival, func() bool { return s.count() >= n+1 }) {
			t.Fatalf("delivered %d of %d messages on a reliable backend", s.count()-1, n)
		}
	} else {
		// Give an unreliable backend a beat to drain what it kept.
		waitFor(500*time.Millisecond, func() bool { return s.count() >= n+1 })
	}
	if !c.Ordered {
		return
	}
	last := -1
	for _, p := range s.snapshot()[1:] {
		var seq int
		if _, err := fmt.Sscanf(string(p.Data), "seq-%d", &seq); err != nil {
			t.Fatalf("unexpected payload %q", p.Data)
		}
		if seq <= last {
			t.Fatalf("ordering violation on an ordered backend: %d after %d", seq, last)
		}
		last = seq
	}
}

// payloadPattern fills a large payload with position-dependent bytes so
// a reassembly that scrambles fragment order cannot pass.
func payloadPattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

func (c Conformance) payloadLimits(t *testing.T) {
	if c.DeliverPayload == 0 && c.DropPayload == 0 {
		t.Skip("backend declares no payload limits to probe")
	}
	tr := c.New(t, []transport.Addr{1, 2})
	defer tr.Close()
	ep1, s := pair(t, tr)
	if c.DropPayload > 0 {
		// Oversize first: it must vanish without wedging the endpoint.
		ep1.Send(2, payloadPattern(c.DropPayload))
	}
	if c.DeliverPayload > 0 {
		big := payloadPattern(c.DeliverPayload)
		c.deliver(t, ep1, 2, s, big, fmt.Sprintf("%d-byte payload", len(big)))
	}
	c.deliver(t, ep1, 2, s, []byte("after-oversize"), "small payload after oversize")
	if c.DropPayload > 0 {
		for _, p := range s.snapshot() {
			if len(p.Data) == c.DropPayload {
				t.Fatalf("over-limit %d-byte payload was delivered", c.DropPayload)
			}
		}
	}
}

// enqueueAll opens a pair on tr and enqueues every message — a head and
// a body — and flushes until all of them arrived as head‖body: once on
// a reliable backend, resending what is missing on the others. Each head
// is scribbled over right after its Enqueue, which copies it; each body
// must be read where it is and is checked untouched at the end. A last,
// empty Flush is a no-op.
func (c Conformance) enqueueAll(t *testing.T, tr transport.Transport, msgs [][2][]byte) {
	defer tr.Close()
	ep1, s := pair(t, tr)
	c.deliver(t, ep1, 2, s, []byte("warmup"), "warmup")
	var pristine [][]byte
	for _, m := range msgs {
		pristine = append(pristine, bytes.Clone(m[1]))
	}
	missing := func() (out [][2][]byte) {
		got := make(map[string]bool)
		for _, p := range s.snapshot() {
			got[string(p.Data)] = true
		}
		for _, m := range msgs {
			if !got[string(m[0])+string(m[1])] {
				out = append(out, m)
			}
		}
		return out
	}
	send := func(ms [][2][]byte) {
		for _, m := range ms {
			head := bytes.Clone(m[0])
			ep1.Enqueue(2, head, m[1])
			clear(head)
		}
		ep1.Flush()
	}
	done := func() bool { return len(missing()) == 0 }
	send(msgs)
	if !c.Reliable {
		for deadline := time.Now().Add(arrival); !waitFor(50*time.Millisecond, done) && time.Now().Before(deadline); {
			send(missing())
		}
	}
	if !waitFor(arrival, done) {
		t.Fatalf("%d of %d messages never delivered", len(missing()), len(msgs))
	}
	for i, m := range msgs {
		if !bytes.Equal(m[1], pristine[i]) {
			t.Fatalf("the body of message %d changed", i)
		}
	}
	ep1.Flush()
}

// batch checks that a batch ending in Flush is equivalent to the same
// plain Sends.
func (c Conformance) batch(t *testing.T) {
	msgs := make([][2][]byte, 20)
	for i := range msgs {
		msgs[i][0] = []byte(fmt.Sprintf("batch-%04d", i))
	}
	c.enqueueAll(t, c.New(t, []transport.Addr{1, 2}), msgs)
}

// body checks Enqueue's two halves: what arrives is exactly head‖body —
// for empty bodies, small ones packed together and one as large as the
// backend carries — bare, through a zero-rate Faulty (which passes the
// body on by reference) and through a delaying one (which joins head
// and body and sends the copy from its timer, on another goroutine).
func (c Conformance) body(t *testing.T) {
	var msgs [][2][]byte
	for i := 0; i < 10; i++ {
		msgs = append(msgs, [2][]byte{[]byte(fmt.Sprintf("head-%02d|", i)), payloadPattern(100 * i)})
	}
	if c.DeliverPayload > 0 {
		head := []byte("head-big|")
		msgs = append(msgs, [2][]byte{head, payloadPattern(c.DeliverPayload - len(head))})
	}
	for name, cfg := range map[string]*transport.FaultConfig{
		"bare":           nil,
		"faulty":         {Seed: 5},
		"faulty-delayed": {Seed: 5, Delay: time.Millisecond},
	} {
		t.Run(name, func(t *testing.T) {
			tr := c.New(t, []transport.Addr{1, 2})
			if cfg != nil {
				tr = transport.Faulty(tr, *cfg)
			}
			c.enqueueAll(t, tr, msgs)
		})
	}
}

func (c Conformance) closeDuringSend(t *testing.T) {
	tr := c.New(t, []transport.Addr{1, 2})
	s := new(sink)
	ep1, err := tr.OpenBatch(1, discard)
	if err != nil {
		t.Fatalf("open 1: %v", err)
	}
	ep2, err := tr.OpenBatch(2, s.recv)
	if err != nil {
		t.Fatalf("open 2: %v", err)
	}
	c.deliver(t, ep1, 2, s, []byte("pre-close"), "pre-close")
	// Hammer sends from several goroutines while both the receiving
	// endpoint and then the whole transport close underneath them: no
	// panic, no deadlock; post-close sends are silently dropped.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := []byte(fmt.Sprintf("hammer-%d", g))
			// Bounded and paced: the probe is close-during-send SAFETY,
			// not throughput, and an unbounded tight loop piles up
			// in-flight work some backends (simnet timers) then have to
			// drain at Close.
			for i := 0; i < 2000; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ep1.Send(2, payload)
				if i%100 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
			<-stop
		}(g)
	}
	time.Sleep(10 * time.Millisecond)
	ep2.Close()
	time.Sleep(5 * time.Millisecond)
	tr.Close()
	close(stop)
	wg.Wait()
	// The endpoint slot must be reusable after an endpoint-level Close
	// on a still-open transport; after transport Close, OpenBatch must fail.
	if _, err := tr.OpenBatch(2, s.recv); err == nil {
		t.Fatalf("OpenBatch succeeded on a closed transport")
	}
	ep1.Send(2, []byte("post-close")) // must not panic
}

func (c Conformance) router(t *testing.T) {
	if c.Reserve == nil {
		t.Skip("backend has implicit routing (no Router extension)")
	}
	tr := c.New(t, []transport.Addr{1, 2})
	defer tr.Close()
	rt, ok := tr.(transport.Router)
	if !ok {
		t.Fatalf("backend reserves addresses but does not implement Router")
	}
	var s1, s3 sink
	ep1, err := tr.OpenBatch(1, s1.recv)
	if err != nil {
		t.Fatalf("open 1: %v", err)
	}
	// Address 3 is not in the book: sends to it are dropped as loss.
	ep1.Send(3, []byte("unrouted"))
	// Admit 3 at a fresh loopback port, open it, and traffic flows.
	extra := c.Reserve(t, 1)[0]
	if err := rt.AddRoute(3, extra); err != nil {
		t.Fatalf("AddRoute(3, %q): %v", extra, err)
	}
	ep3, err := tr.OpenBatch(3, s3.recv)
	if err != nil {
		t.Fatalf("open 3 after AddRoute: %v", err)
	}
	c.deliver(t, ep1, 3, &s3, []byte("routed"), "1->3 after AddRoute")
	c.deliver(t, ep3, 1, &s1, []byte("back"), "3->1 after AddRoute")
	// Retire the route: subsequent sends to 3 drop; the endpoint itself
	// keeps working for other destinations.
	rt.RemoveRoute(3)
	before := s3.count()
	for i := 0; i < 5; i++ {
		ep1.Send(3, []byte(fmt.Sprintf("after-remove-%d", i)))
	}
	if waitFor(200*time.Millisecond, func() bool { return s3.count() > before }) {
		t.Fatalf("send to a removed route was delivered")
	}
}

func (c Conformance) faultyWrap(t *testing.T) {
	inner := c.New(t, []transport.Addr{1, 2})
	tr := transport.Faulty(inner, transport.FaultConfig{Seed: 42})
	defer tr.Close()
	ep1, s := pair(t, tr)
	// Zero-rate wrap: behavior unchanged.
	c.deliver(t, ep1, 2, s, []byte("through faulty"), "1->2 through zero-rate Faulty")
	// Total loss: nothing new arrives.
	tr.SetLoss(1.0)
	before := s.count()
	for i := 0; i < 10; i++ {
		ep1.Send(2, []byte(fmt.Sprintf("lost-%d", i)))
	}
	if waitFor(200*time.Millisecond, func() bool { return s.count() > before }) {
		t.Fatalf("packet delivered through loss=1.0")
	}
	// Heal: traffic flows again (resend loop rides out queued fates).
	tr.SetLoss(0)
	c.deliver(t, ep1, 2, s, []byte("healed"), "1->2 after loss healed")
}
