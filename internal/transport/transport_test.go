package transport

import (
	"bytes"
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/wire"
)

// reserveLoopbackAddrs is a local copy of transporttest.ReserveAddrs:
// the in-package tests cannot import transporttest (it imports this
// package for the conformance suite, which would be a cycle).
func reserveLoopbackAddrs(t testing.TB, n int) []string {
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

// reserveBook builds an address book over freshly reserved loopback
// ports.
func reserveBook(t *testing.T, n int) map[Addr]string {
	t.Helper()
	book := make(map[Addr]string, n)
	for i, a := range reserveLoopbackAddrs(t, n) {
		book[Addr(i)] = a
	}
	return book
}

type packet struct {
	from Addr
	data string
}

// openEach opens addr on tr with a per-packet receiver; nil discards
// what arrives.
func openEach(tr Transport, addr Addr, recv func(Addr, []byte)) (Endpoint, error) {
	return tr.OpenBatch(addr, func(pkts []Packet) {
		for _, p := range pkts {
			if recv != nil {
				recv(p.From, p.Data)
			}
		}
	})
}

// collector funnels deliveries into a channel.
func collector(buf int) (func(Addr, []byte), chan packet) {
	ch := make(chan packet, buf)
	return func(from Addr, data []byte) {
		ch <- packet{from, string(data)}
	}, ch
}

func expectPacket(t *testing.T, ch chan packet, want packet) {
	t.Helper()
	select {
	case got := <-ch:
		if got != want {
			t.Fatalf("got %+v, want %+v", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %+v", want)
	}
}

func expectQuiet(t *testing.T, ch chan packet, d time.Duration) {
	t.Helper()
	select {
	case got := <-ch:
		t.Fatalf("unexpected delivery %+v", got)
	case <-time.After(d):
	}
}

func TestUDPRoundTrip(t *testing.T) {
	tr, err := NewUDP(UDPConfig{Book: reserveBook(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	recv0, ch0 := collector(8)
	recv1, ch1 := collector(8)
	// Open, the per-payload adapter over OpenBatch.
	ep0, err := tr.Open(0, recv0)
	if err != nil {
		t.Fatal(err)
	}
	ep1, err := tr.Open(1, recv1)
	if err != nil {
		t.Fatal(err)
	}
	if ep0.Addr() != 0 || ep1.Addr() != 1 {
		t.Fatalf("bad endpoint addrs %d %d", ep0.Addr(), ep1.Addr())
	}

	ep0.Send(1, []byte("ping"))
	expectPacket(t, ch1, packet{0, "ping"})
	ep1.Send(0, []byte("pong"))
	expectPacket(t, ch0, packet{1, "pong"})

	// Loopback: a self-addressed datagram comes back through the socket.
	ep0.Send(0, []byte("self"))
	expectPacket(t, ch0, packet{0, "self"})

	// Empty payloads survive framing.
	ep1.Send(0, nil)
	expectPacket(t, ch0, packet{1, ""})

	st := tr.Stats()
	if st.Sent != 4 || st.Delivered != 4 || st.Malformed != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestUDPOpenErrors(t *testing.T) {
	tr, err := NewUDP(UDPConfig{Book: reserveBook(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	recv, _ := collector(1)
	if _, err := openEach(tr, 0, recv); err != nil {
		t.Fatal(err)
	}
	if _, err := openEach(tr, 0, recv); err == nil {
		t.Fatal("double open succeeded")
	}
	if _, err := openEach(tr, 7, recv); err == nil {
		t.Fatal("open of unlisted address succeeded")
	}
	tr.Close()
	if _, err := openEach(tr, 0, recv); err != ErrClosed {
		t.Fatalf("open after close: %v", err)
	}
}

func TestUDPSendErrors(t *testing.T) {
	tr, err := NewUDP(UDPConfig{Book: reserveBook(t, 1), MaxPacket: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	recv, ch := collector(1)
	ep, err := openEach(tr, 0, recv)
	if err != nil {
		t.Fatal(err)
	}
	ep.Send(9, []byte("no such peer"))
	ep.Send(0, make([]byte, 4096)) // beyond MaxPacket
	expectQuiet(t, ch, 50*time.Millisecond)
	if st := tr.Stats(); st.SendErrs != 2 || st.Sent != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestUDPFrameCorruption feeds raw datagrams — truncated, mis-tagged,
// version-skewed and mis-tiled — straight into the socket and checks the
// decoder drops each whole, counted once, delivering no part of it and
// leaving the good datagram after them alone.
func TestUDPFrameCorruption(t *testing.T) {
	book := reserveBook(t, 1)
	tr, err := NewUDP(UDPConfig{Book: book})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	recv, ch := collector(8)
	if _, err := openEach(tr, 0, recv); err != nil {
		t.Fatal(err)
	}

	raw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	dst, err := net.ResolveUDPAddr("udp", book[0])
	if err != nil {
		t.Fatal(err)
	}

	good := wire.NewWriter(16).Byte(frameMagic).Byte(frameVersion).Uvarint(3).BytesField([]byte("ok")).BytesField(nil).Bytes()
	bad := [][]byte{
		{},                                    // empty datagram
		{frameMagic},                          // truncated after magic
		{frameMagic, frameVersion},            // truncated before the sender address
		good[:2],                              // truncated header
		{0x00, frameVersion, 0x01, 0x01, 'x'}, // wrong magic
		{frameMagic, frameVersion + 1, 0x01, 0x01, 'x'}, // a later version
		{frameMagic, 1, 0x01, 'x', 'y'},                 // version 1: one payload, no length
		append([]byte{frameMagic, frameVersion}, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF), // overflowing sender varint
		{frameMagic, frameVersion, 0x01},                            // zero segments
		{frameMagic, frameVersion, 0x01, 0x05, 'x'},                 // a length past the end
		{frameMagic, frameVersion, 0x01, 0x01, 'x', 0x80},           // a truncated length varint
		{frameMagic, frameVersion, 0x01, 0x02, 'o', 'k', 0x03, 'x'}, // a good segment, then one cut short
		good[:len(good)-2],                                          // cut inside a segment
	}
	for i, b := range bad {
		if _, err := raw.WriteToUDP(b, dst); err != nil {
			t.Fatalf("write bad frame %d: %v", i, err)
		}
	}
	if _, err := raw.WriteToUDP(good, dst); err != nil {
		t.Fatal(err)
	}

	// The good datagram's two payloads arrive; nothing of the bad ones.
	expectPacket(t, ch, packet{3, "ok"})
	expectPacket(t, ch, packet{3, ""})
	expectQuiet(t, ch, 50*time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := tr.Stats(); st.Malformed == uint64(len(bad)) && st.Delivered == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats %+v, want %d malformed and 2 delivered", tr.Stats(), len(bad))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestUDPOverLimitDatagram sends from a peer configured with a larger
// MaxPacket: the receiver's read loop must drop the over-limit
// datagram as malformed instead of delivering a silently truncated
// frame (ReadFromUDP cuts at the buffer with no error).
func TestUDPOverLimitDatagram(t *testing.T) {
	book := reserveBook(t, 2)
	small, err := NewUDP(UDPConfig{Book: book, MaxPacket: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	big, err := NewUDP(UDPConfig{Book: book, MaxPacket: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer big.Close()
	recv0, ch0 := collector(4)
	if _, err := openEach(small, 0, recv0); err != nil {
		t.Fatal(err)
	}
	epBig, err := openEach(big, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	epBig.Send(0, make([]byte, 2000)) // fits big's limit, exceeds small's
	expectQuiet(t, ch0, 50*time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for small.Stats().Malformed != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("over-limit datagram not counted: %+v", small.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	// A frame within the receiver's limit still flows.
	epBig.Send(0, []byte("ok"))
	expectPacket(t, ch0, packet{1, "ok"})
}

// segments decodes a datagram into its sender and payloads.
func segments(b []byte) (from Addr, payloads []string, ok bool) {
	from, body, n, ok := decodeFrame(b)
	for len(body) > 0 {
		var seg []byte
		seg, body, _ = nextSegment(body)
		payloads = append(payloads, string(seg))
	}
	if len(payloads) != n {
		panic(fmt.Sprintf("decodeFrame counted %d segments, %d found", n, len(payloads)))
	}
	return from, payloads, ok
}

// TestDecodeFrameTruncation checks that no strict prefix of a
// one-payload datagram decodes, and that a prefix of a datagram of
// several decodes only where it happens to end on a segment boundary —
// and then to exactly the segments before the cut, never a part of one.
func TestDecodeFrameTruncation(t *testing.T) {
	one := wire.NewWriter(16).Byte(frameMagic).Byte(frameVersion).Uvarint(300).BytesField([]byte("payload")).Bytes()
	if from, got, ok := segments(one); !ok || from != 300 || fmt.Sprint(got) != "[payload]" {
		t.Fatalf("full datagram: from=%d payloads=%q ok=%v", from, got, ok)
	}
	for cut := 0; cut < len(one); cut++ {
		if _, _, _, ok := decodeFrame(one[:cut]); ok {
			t.Fatalf("%d-byte prefix of a %d-byte datagram accepted", cut, len(one))
		}
	}

	w := wire.NewWriter(64).Byte(frameMagic).Byte(frameVersion).Uvarint(300)
	ends := map[int][]string{}
	var want []string
	for _, p := range []string{"pay", "", "load", string(make([]byte, 200))} {
		w.BytesField([]byte(p))
		want = append(want, p)
		ends[w.Len()] = append([]string(nil), want...)
	}
	several := w.Bytes()
	for cut := 0; cut <= len(several); cut++ {
		_, got, ok := segments(several[:cut])
		if prefix, boundary := ends[cut]; ok != boundary || (ok && fmt.Sprint(got) != fmt.Sprint(prefix)) {
			t.Fatalf("%d-byte prefix: ok=%v with %d payloads, want ok=%v", cut, ok, len(got), boundary)
		}
	}
}

// FuzzDatagramFrame fuzzes the datagram decoder with what a socket may
// hand it: it never panics, a segment it accepts never reaches outside
// the datagram, and an accepted datagram re-encodes to exactly its
// bytes. The same input, cut into payloads at fuzzer-chosen points,
// also drives an encode→decode round trip through the send queue, which
// must give back every payload, in order, in datagrams within the cap.
func FuzzDatagramFrame(f *testing.F) {
	f.Add(wire.NewWriter(16).Byte(frameMagic).Byte(frameVersion).Uvarint(3).BytesField([]byte("ok")).Bytes(), uint16(2), uint8(3))
	f.Add(wire.NewWriter(16).Byte(frameMagic).Byte(frameVersion).Uvarint(1).BytesField(nil).BytesField([]byte("ab")).Bytes(), uint16(64), uint8(1))
	f.Add([]byte{frameMagic, frameVersion, 0x01}, uint16(100), uint8(7))                        // zero segments
	f.Add([]byte{frameMagic, frameVersion, 0x01, 0x05, 'x'}, uint16(16), uint8(2))              // a length past the end
	f.Add([]byte{frameMagic, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint16(9), uint8(0)) // version 1, overflowing sender
	f.Fuzz(func(t *testing.T, data []byte, capHint uint16, cutHint uint8) {
		// 1. Adversarial decode.
		if from, body, n, ok := decodeFrame(data); ok {
			re := wire.NewWriter(len(data)).Byte(frameMagic).Byte(frameVersion).Uvarint(uint64(from))
			for k := 0; k < n; k++ {
				var seg []byte
				seg, body, _ = nextSegment(body)
				if cap(seg) != len(seg) {
					t.Fatalf("segment %d can reach %d bytes past its end", k, cap(seg)-len(seg))
				}
				re.BytesField(seg)
			}
			if len(body) != 0 || !bytes.Equal(re.Bytes(), data) {
				t.Fatalf("accepted datagram of %d bytes re-encodes to %d", len(data), re.Len())
			}
		}

		// 2. Round trip: data cut into payloads, packed under a
		// fuzzer-chosen cap, unpacked in order.
		tr := &UDPTransport{cfg: UDPConfig{MaxPacket: MaxDatagram}, book: map[Addr]*net.UDPAddr{9: {}}}
		e := &udpEndpoint{tr: tr, addr: 7, cap: int(capHint)%2048 + 1, hdr: []byte{frameMagic, frameVersion, 7}}
		var payloads [][]byte
		for rest, step := data, int(cutHint)%17; ; step = (step*5 + 3) % 17 {
			k := min(step, len(rest))
			payloads, rest = append(payloads, rest[:k]), rest[k:]
			if len(rest) == 0 {
				break
			}
		}
		for _, p := range payloads {
			e.Enqueue(9, p[:len(p)/2], p[len(p)/2:])
		}
		var got [][]byte
		for _, d := range e.sendq {
			if d.n > 1 && len(d.buf) > e.cap {
				t.Fatalf("a datagram of %d payloads grew to %d bytes past the %d-byte cap", d.n, len(d.buf), e.cap)
			}
			from, body, n, ok := decodeFrame(d.buf)
			if !ok || from != 7 || n != d.n {
				t.Fatalf("packed datagram does not decode: ok=%v from=%d %d of %d payloads", ok, from, n, d.n)
			}
			for len(body) > 0 {
				var seg []byte
				seg, body, _ = nextSegment(body)
				got = append(got, seg)
			}
		}
		if len(got) != len(payloads) {
			t.Fatalf("%d payloads packed, %d unpacked", len(payloads), len(got))
		}
		for i := range got {
			if !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("payload %d changed in the round trip", i)
			}
		}
	})
}

func TestSimAdapterRoundTrip(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 1})
	tr := Sim(net)
	defer tr.Close()
	recv0, ch0 := collector(8)
	recv1, ch1 := collector(8)
	ep0, err := openEach(tr, 0, recv0)
	if err != nil {
		t.Fatal(err)
	}
	ep1, err := openEach(tr, 1, recv1)
	if err != nil {
		t.Fatal(err)
	}
	ep0.Send(1, []byte("a"))
	ep1.Send(0, []byte("b"))
	ep0.Send(0, []byte("self"))
	expectPacket(t, ch1, packet{0, "a"})
	// ch0 receives from two senders; simnet does not order across them.
	got := map[packet]bool{}
	for i := 0; i < 2; i++ {
		select {
		case p := <-ch0:
			got[p] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out; got %v", got)
		}
	}
	if !got[packet{1, "b"}] || !got[packet{0, "self"}] {
		t.Fatalf("got %v", got)
	}
	ep1.Close()
	if _, err := openEach(tr, 1, recv1); err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
}

// TestFaultyLoss injects simnet-style probabilistic loss over the real
// socket backend: with LossRate 1 nothing but loopback traffic
// survives; with loss off again everything flows.
func TestFaultyLoss(t *testing.T) {
	inner, err := NewUDP(UDPConfig{Book: reserveBook(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	tr := Faulty(inner, FaultConfig{Seed: 42, LossRate: 1})
	defer tr.Close()
	recv0, ch0 := collector(64)
	recv1, ch1 := collector(64)
	ep0, err := openEach(tr, 0, recv0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := openEach(tr, 1, recv1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		ep0.Send(1, []byte(fmt.Sprintf("doomed-%d", i)))
	}
	expectQuiet(t, ch1, 100*time.Millisecond)
	if st := tr.Stats(); st.Dropped != 20 || st.Passed != 0 {
		t.Fatalf("stats %+v", st)
	}

	// Loopback is exempt from loss, as in simnet.
	ep0.Send(0, []byte("self"))
	expectPacket(t, ch0, packet{0, "self"})
}

// TestFaultyDup duplicates every datagram: each send is delivered
// exactly twice — the dedup burden the upper layers must carry.
func TestFaultyDup(t *testing.T) {
	inner := Sim(simnet.New(simnet.Config{Seed: 7}))
	tr := Faulty(inner, FaultConfig{Seed: 7, DupRate: 1})
	defer tr.Close()
	recv1, ch1 := collector(8)
	ep0, err := openEach(tr, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := openEach(tr, 1, recv1); err != nil {
		t.Fatal(err)
	}
	ep0.Send(1, []byte("x"))
	expectPacket(t, ch1, packet{0, "x"})
	expectPacket(t, ch1, packet{0, "x"})
	expectQuiet(t, ch1, 50*time.Millisecond)
	if st := tr.Stats(); st.Duplicated != 1 || st.Passed != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestFaultySeededLoss pins the deterministic fate sequence: the same
// seed yields the same survivors, the property the simnet-based suites
// rely on.
func TestFaultySeededLoss(t *testing.T) {
	run := func() []string {
		inner := Sim(simnet.New(simnet.Config{Seed: 3}))
		tr := Faulty(inner, FaultConfig{Seed: 99, LossRate: 0.5})
		defer tr.Close()
		recv1, ch1 := collector(64)
		ep0, err := openEach(tr, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := openEach(tr, 1, recv1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			ep0.Send(1, []byte(fmt.Sprintf("m%d", i)))
		}
		var got []string
		for {
			select {
			case p := <-ch1:
				got = append(got, p.data)
			case <-time.After(100 * time.Millisecond):
				return got
			}
		}
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) == 16 {
		t.Fatalf("expected partial loss, got %d of 16", len(a))
	}
	// Zero-latency simnet timers do not order concurrent deliveries;
	// only the set of survivors is deterministic.
	sort.Strings(a)
	sort.Strings(b)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("fates not reproducible:\n%v\n%v", a, b)
	}
}

func TestUDPRuntimeRoutes(t *testing.T) {
	// The address book is mutable at runtime: AddRoute admits a joiner's
	// endpoint, RemoveRoute retires an evicted member's.
	addrs := reserveLoopbackAddrs(t, 3)
	tr, err := NewUDP(UDPConfig{Book: map[Addr]string{0: addrs[0], 1: addrs[1]}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	recv := make(chan string, 16)
	ep0, err := openEach(tr, 0, func(from Addr, data []byte) {
		recv <- fmt.Sprintf("%d:%s", from, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Address 2 is not in the book yet: the send is dropped as loss.
	ep0.Send(2, []byte("early"))
	if got := tr.Stats().SendErrs; got != 1 {
		t.Fatalf("send to unrouted address: SendErrs = %d, want 1", got)
	}

	// Admit 2 at runtime and exchange traffic both ways.
	if err := tr.AddRoute(2, addrs[2]); err != nil {
		t.Fatal(err)
	}
	ep2, err := openEach(tr, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = ep2
	deadline := time.Now().Add(5 * time.Second)
	for {
		ep0.Send(2, []byte("hi")) // UDP: retry until the socket is up
		ep2.Send(0, []byte("yo"))
		select {
		case got := <-recv:
			if got != "2:yo" {
				t.Fatalf("received %q", got)
			}
			goto routed
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("no traffic over runtime route")
		}
	}
routed:
	// Retire the route: sends drop again.
	tr.RemoveRoute(2)
	base := tr.Stats().SendErrs
	ep0.Send(2, []byte("late"))
	if got := tr.Stats().SendErrs; got != base+1 {
		t.Fatalf("send after RemoveRoute: SendErrs = %d, want %d", got, base+1)
	}

	// AddRoute validates the endpoint.
	if err := tr.AddRoute(5, "not a hostport::"); err == nil {
		t.Fatal("bad endpoint accepted")
	}
}

func TestFaultyForwardsRoutes(t *testing.T) {
	addrs := reserveLoopbackAddrs(t, 2)
	inner, err := NewUDP(UDPConfig{Book: map[Addr]string{0: addrs[0]}})
	if err != nil {
		t.Fatal(err)
	}
	f := Faulty(inner, FaultConfig{})
	defer f.Close()
	var r Router = f // the decorator is always a Router
	if err := r.AddRoute(1, addrs[1]); err != nil {
		t.Fatal(err)
	}
	inner.bookMu.RLock()
	_, ok := inner.book[1]
	inner.bookMu.RUnlock()
	if !ok {
		t.Fatal("route not forwarded to inner transport")
	}
	r.RemoveRoute(1)
	inner.bookMu.RLock()
	_, ok = inner.book[1]
	inner.bookMu.RUnlock()
	if ok {
		t.Fatal("route removal not forwarded")
	}
}

// TestFaultyRuntimeMutable reshapes a live decorator: loss 1 → nothing
// flows; SetLoss(0) → everything flows again, no reconstruction.
func TestFaultyRuntimeMutable(t *testing.T) {
	inner := Sim(simnet.New(simnet.Config{Seed: 5}))
	tr := Faulty(inner, FaultConfig{Seed: 5, LossRate: 1})
	defer tr.Close()
	recv1, ch1 := collector(64)
	ep0, err := openEach(tr, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := openEach(tr, 1, recv1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		ep0.Send(1, []byte("doomed"))
	}
	expectQuiet(t, ch1, 50*time.Millisecond)
	tr.SetLoss(0)
	ep0.Send(1, []byte("alive"))
	expectPacket(t, ch1, packet{0, "alive"})
	if st := tr.Stats(); st.Dropped != 10 || st.Passed != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestFaultyDelayAndJitter holds datagrams back: with a 30ms delay a
// send is not delivered promptly, but arrives once the delay elapses
// (and the caller's buffer, reused immediately after Send, must not
// corrupt the held-back copy).
func TestFaultyDelayAndJitter(t *testing.T) {
	inner := Sim(simnet.New(simnet.Config{Seed: 11}))
	tr := Faulty(inner, FaultConfig{Seed: 11, Delay: 30 * time.Millisecond, Jitter: 5 * time.Millisecond})
	defer tr.Close()
	recv1, ch1 := collector(8)
	ep0, err := openEach(tr, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := openEach(tr, 1, recv1); err != nil {
		t.Fatal(err)
	}
	buf := []byte("delayed")
	start := time.Now()
	ep0.Send(1, buf)
	copy(buf, "clobber") // the decorator must have copied
	select {
	case p := <-ch1:
		t.Fatalf("delivered %q after only %v", p.data, time.Since(start))
	case <-time.After(10 * time.Millisecond):
	}
	expectPacket(t, ch1, packet{0, "delayed"})
	if since := time.Since(start); since < 25*time.Millisecond {
		t.Fatalf("arrived after %v, want >= ~30ms", since)
	}
	if st := tr.Stats(); st.Delayed != 1 || st.Passed != 1 {
		t.Fatalf("stats %+v", st)
	}

	// SetDelay(0)+SetJitter(0) restores prompt delivery.
	tr.SetDelay(0)
	tr.SetJitter(0)
	ep0.Send(1, []byte("prompt"))
	expectPacket(t, ch1, packet{0, "prompt"})
}

// TestFaultyConcurrentSendDeterminism is the regression test for the
// mutable decorator's RNG: fates must come from one mutex-guarded
// seeded stream (not a racy snapshot taken at construction), so (a)
// concurrent senders pass the race detector and conserve the packet
// count, and (b) a sequential send sequence reproduces the identical
// fate sequence run after run, even after runtime Set* calls.
func TestFaultyConcurrentSendDeterminism(t *testing.T) {
	const senders, perSender = 8, 200
	concurrent := func() FaultStats {
		inner := Sim(simnet.New(simnet.Config{Seed: 1}))
		tr := Faulty(inner, FaultConfig{Seed: 21, LossRate: 0.3, DupRate: 0.1})
		defer tr.Close()
		ep0, err := openEach(tr, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := openEach(tr, 1, nil); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perSender; i++ {
					ep0.Send(1, []byte("m"))
				}
			}()
		}
		wg.Wait()
		return tr.Stats()
	}
	st := concurrent()
	if st.Passed+st.Dropped != senders*perSender {
		t.Fatalf("lost fate rolls under concurrency: %+v", st)
	}

	sequential := func() FaultStats {
		inner := Sim(simnet.New(simnet.Config{Seed: 1}))
		tr := Faulty(inner, FaultConfig{Seed: 21, LossRate: 0.3, DupRate: 0.1})
		defer tr.Close()
		ep0, err := openEach(tr, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := openEach(tr, 1, nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			ep0.Send(1, []byte("m"))
		}
		tr.SetLoss(0.8) // runtime mutation must not fork the RNG stream
		for i := 0; i < 100; i++ {
			ep0.Send(1, []byte("m"))
		}
		return tr.Stats()
	}
	a, b := sequential(), sequential()
	if a != b {
		t.Fatalf("sequential fates not reproducible:\n%+v\n%+v", a, b)
	}
	if a.Dropped == 0 || a.Duplicated == 0 {
		t.Fatalf("expected mixed fates, got %+v", a)
	}
}
