package transport

import (
	"bytes"
	"errors"
	"net"
	"os"
	"testing"
	"time"
)

// reserveStreamBook builds a TCP address book over freshly reserved
// loopback ports (local copy of transporttest.ReserveStreamAddrs; see
// reserveLoopbackAddrs for why the import is off limits).
func reserveStreamBook(t testing.TB, n int) map[Addr]string {
	t.Helper()
	book := make(map[Addr]string, n)
	ls := make([]net.Listener, 0, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		ls = append(ls, l)
		book[Addr(i)] = l.Addr().String()
	}
	for _, l := range ls {
		l.Close()
	}
	return book
}

func newTestTCP(t testing.TB, book map[Addr]string) *TCPTransport {
	t.Helper()
	tr, err := NewTCP(TCPConfig{Book: book, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTCPRoundTrip(t *testing.T) {
	tr := newTestTCP(t, reserveStreamBook(t, 2))
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

	ep0.Send(1, []byte("ping"))
	expectPacket(t, ch1, packet{0, "ping"})
	ep1.Send(0, []byte("pong"))
	expectPacket(t, ch0, packet{1, "pong"})

	// Loopback: a self-addressed message comes back through a real
	// connection to our own listener.
	ep0.Send(0, []byte("self"))
	expectPacket(t, ch0, packet{0, "self"})

	// Empty payloads survive framing (a single empty FIN frame).
	ep1.Send(0, nil)
	expectPacket(t, ch0, packet{1, ""})

	st := tr.Stats()
	if st.Delivered != 4 || st.Malformed != 0 || st.SendErrs != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.Dials == 0 {
		t.Fatalf("no dials counted: %+v", st)
	}
}

// TestTCPLargePayload round-trips a payload ~16× the UDP datagram
// ceiling: it must be fragmented on the wire and reassembled exactly.
func TestTCPLargePayload(t *testing.T) {
	tr := newTestTCP(t, reserveStreamBook(t, 2))
	defer tr.Close()
	got := make(chan []byte, 1)
	if _, err := openEach(tr, 0, func(from Addr, data []byte) { got <- data }); err != nil {
		t.Fatal(err)
	}
	ep1, err := openEach(tr, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i*7 + i>>9)
	}
	ep1.Send(0, big)
	select {
	case data := <-got:
		if !bytes.Equal(data, big) {
			t.Fatalf("large payload corrupted in flight (%d bytes)", len(data))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("large payload never delivered")
	}
	if st := tr.Stats(); st.Fragments < uint64(len(big)/DefaultMaxFragment) {
		t.Fatalf("expected ≥%d fragments, stats %+v", len(big)/DefaultMaxFragment, st)
	}
}

// TestTCPReconnect kills the receiving endpoint and reopens it: the
// sender must redial (counted as a reconnect) and traffic resume.
func TestTCPReconnect(t *testing.T) {
	book := reserveStreamBook(t, 2)
	tr := newTestTCP(t, book)
	defer tr.Close()
	recv1, ch1 := collector(8)
	ep0, err := openEach(tr, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ep1, err := openEach(tr, 1, recv1)
	if err != nil {
		t.Fatal(err)
	}
	ep0.Send(1, []byte("before"))
	expectPacket(t, ch1, packet{0, "before"})

	ep1.Close()
	recv1b, ch1b := collector(8)
	if _, err := openEach(tr, 1, recv1b); err != nil {
		t.Fatalf("reopen 1: %v", err)
	}
	// The sender's old connection is dead; keep sending until the
	// redial lands (frames sent into the dying connection are loss).
	deadline := time.Now().Add(10 * time.Second)
	for {
		ep0.Send(1, []byte("after"))
		select {
		case got := <-ch1b:
			if got.data != "after" || got.from != 0 {
				t.Fatalf("unexpected packet %+v", got)
			}
			if st := tr.Stats(); st.Reconnects == 0 {
				t.Fatalf("no reconnect counted: %+v", st)
			}
			return
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("traffic never resumed after reconnect")
		}
	}
}

// TestTCPSimultaneousDial has both peers dial each other at once, many
// times: the lower-address initiator must win the tie-break on both
// sides, and traffic must keep flowing both ways afterwards.
func TestTCPSimultaneousDial(t *testing.T) {
	tr := newTestTCP(t, reserveStreamBook(t, 2))
	defer tr.Close()
	recv0, ch0 := collector(64)
	recv1, ch1 := collector(64)
	ep0, err := openEach(tr, 0, recv0)
	if err != nil {
		t.Fatal(err)
	}
	ep1, err := openEach(tr, 1, recv1)
	if err != nil {
		t.Fatal(err)
	}
	// First sends from both sides race their dials.
	ep0.Send(1, []byte("race-0"))
	ep1.Send(0, []byte("race-1"))
	// Whatever connections died in the tie-break, these must arrive
	// (possibly after a redial).
	deliver := func(ep Endpoint, to Addr, ch chan packet, payload string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			ep.Send(to, []byte(payload))
			select {
			case got := <-ch:
				if got.data == payload {
					return
				}
			case <-time.After(20 * time.Millisecond):
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never delivered", payload)
			}
		}
	}
	deliver(ep0, 1, ch1, "steady-0")
	deliver(ep1, 0, ch0, "steady-1")
}

func TestTCPSendErrors(t *testing.T) {
	tr, err := NewTCP(TCPConfig{Book: reserveStreamBook(t, 1), MaxMessage: 512})
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
	ep.Send(0, make([]byte, 4096)) // beyond MaxMessage
	expectQuiet(t, ch, 50*time.Millisecond)
	if st := tr.Stats(); st.SendErrs != 2 || st.Delivered != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestTCPRemoveRouteDropsLink evicts a peer mid-stream: its connection
// closes, queued frames are discarded, and later sends drop as loss.
func TestTCPRemoveRouteDropsLink(t *testing.T) {
	tr := newTestTCP(t, reserveStreamBook(t, 2))
	defer tr.Close()
	recv1, ch1 := collector(8)
	ep0, err := openEach(tr, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := openEach(tr, 1, recv1); err != nil {
		t.Fatal(err)
	}
	ep0.Send(1, []byte("pre"))
	expectPacket(t, ch1, packet{0, "pre"})

	tr.RemoveRoute(1)
	ep0.Send(1, []byte("post"))
	expectQuiet(t, ch1, 100*time.Millisecond)
	if st := tr.Stats(); st.SendErrs == 0 {
		t.Fatalf("post-eviction send not counted as loss: %+v", st)
	}
}

// TestTCPRejectsStrays drives raw connections at an endpoint: a
// mis-spoken hello and a desynchronized stream must both be dropped
// (and counted) without disturbing well-behaved peers.
func TestTCPRejectsStrays(t *testing.T) {
	book := reserveStreamBook(t, 2)
	tr := newTestTCP(t, book)
	defer tr.Close()
	recv0, ch0 := collector(8)
	if _, err := openEach(tr, 0, recv0); err != nil {
		t.Fatal(err)
	}

	// A datagram-framed hello (wrong kind byte) is refused.
	c1, err := net.Dial("tcp", book[0])
	if err != nil {
		t.Fatal(err)
	}
	c1.Write([]byte{frameMagic, frameVersion, 0x01, 'x'})
	// A hello from an address not in the book is refused.
	c2, err := net.Dial("tcp", book[0])
	if err != nil {
		t.Fatal(err)
	}
	c2.Write(appendStreamHello(nil, 99))
	// A valid hello followed by garbage desynchronizes and is torn down.
	c3, err := net.Dial("tcp", book[0])
	if err != nil {
		t.Fatal(err)
	}
	c3.Write(append(appendStreamHello(nil, 1), 0xFF, 0xFF, 0xFF))

	// All three connections end up closed by the endpoint.
	for i, c := range []net.Conn{c1, c2, c3} {
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 1)
		if _, err := c.Read(buf); err == nil {
			t.Fatalf("stray connection %d not closed", i)
		}
		c.Close()
	}
	expectQuiet(t, ch0, 50*time.Millisecond)

	// A well-formed peer still gets through.
	ep1, err := openEach(tr, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ep1.Send(0, []byte("legit"))
	expectPacket(t, ch0, packet{1, "legit"})
	if st := tr.Stats(); st.Malformed < 2 {
		t.Fatalf("stray connections not counted: %+v", st)
	}
}

// TestTCPBatchCoalesces checks the Enqueue/Flush path: one Flush delivers
// everything enqueued, in order, to each peer.
func TestTCPBatchCoalesces(t *testing.T) {
	tr := newTestTCP(t, reserveStreamBook(t, 2))
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
		ep0.Enqueue(1, []byte{byte('a' + i)}, nil)
	}
	ep0.Flush()
	for i := 0; i < 16; i++ {
		expectPacket(t, ch1, packet{0, string(rune('a' + i))})
	}
	ep0.Flush() // empty flush is a no-op
	expectQuiet(t, ch1, 20*time.Millisecond)
}

// TestStreamWireImage pins the stream format byte for byte: the hello
// and the fragment frames are what they were before messages could be
// handed over in two slices, wherever the cut falls.
func TestStreamWireImage(t *testing.T) {
	if got, want := appendStreamHello(nil, 300), []byte{0xD7, 'S', 1, 0xAC, 0x02}; !bytes.Equal(got, want) {
		t.Fatalf("hello % x, want % x", got, want)
	}
	var q sendQueue
	if frags := q.appendMessage([]byte("ab"), []byte("cdefg"), 3); frags != 3 {
		t.Fatalf("%d fragments, want 3", frags)
	}
	q.appendMessage(nil, nil, 3)
	want := []byte{0, 3, 'a', 'b', 'c', 0, 3, 'd', 'e', 'f', 1, 1, 'g', 1, 0}
	if got := bytes.Join(q.bufs, nil); !bytes.Equal(got, want) {
		t.Fatalf("stream % x, want % x", got, want)
	}
}

// TestTCPBodyByReference sends messages as head and body between plain
// ones over a real connection: every message arrives whole and in
// Enqueue order, the byte and fragment counters are those of the joined
// messages, and the writer leaves the referenced bodies as they were.
func TestTCPBodyByReference(t *testing.T) {
	tr := newTestTCP(t, reserveStreamBook(t, 2))
	defer tr.Close()
	got := make(chan []byte, 64)
	if _, err := openEach(tr, 1, func(_ Addr, data []byte) { got <- data }); err != nil {
		t.Fatal(err)
	}
	ep0, err := openEach(tr, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 128<<10)
	for i := range body {
		body[i] = byte(i*7 + i>>8)
	}
	pristine := bytes.Clone(body)
	var want [][]byte
	for round := 0; round < 4; round++ {
		head := []byte{'h', byte(round)}
		ep0.Enqueue(1, []byte{'<', byte(round)}, nil)
		ep0.Enqueue(1, head, body)
		head[0] = 'X' // the head was copied; the caller may reuse it
		ep0.Enqueue(1, []byte{'>', byte(round)}, nil)
		want = append(want, []byte{'<', byte(round)}, append([]byte{'h', byte(round)}, body...), []byte{'>', byte(round)})
		if round%2 == 1 {
			ep0.Flush() // two rounds per writev, then two more
		}
	}
	for i, w := range want {
		select {
		case m := <-got:
			if !bytes.Equal(m, w) {
				t.Fatalf("message %d: %d bytes starting % x, want %d starting % x", i, len(m), m[:2], len(w), w[:2])
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("message %d never delivered", i)
		}
	}
	if !bytes.Equal(body, pristine) {
		t.Fatal("the transport wrote to a body it held by reference")
	}
	st := tr.Stats()
	if wantBytes := uint64(4 * (2 + 2 + len(body) + 2)); st.Bytes != wantBytes || st.Fragments != 4*3 || st.SendErrs != 0 {
		t.Fatalf("stats %+v, want %d bytes in 12 fragments", st, wantBytes)
	}
}

// TestTCPQueueLimitCountsReferencedBytes parks messages for a peer that
// never answers: the queue bound applies to the bytes a message refers
// to, not only to the few it copies.
func TestTCPQueueLimitCountsReferencedBytes(t *testing.T) {
	tr, err := NewTCP(TCPConfig{Book: reserveStreamBook(t, 2), QueueLimit: 100 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ep0, err := openEach(tr, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 64<<10)
	// No Flush, so no writer wakes and the queue only grows.
	for i := 0; i < 5; i++ {
		ep0.Enqueue(1, []byte("head"), body) // 4 bytes copied, 64 KiB referenced
	}
	// The bound is tested before a message is queued, as it always was:
	// the second message finds 64 KiB parked and passes, the third finds
	// 128 KiB. Counting copied bytes alone would find 22 and never drop.
	if st := tr.Stats(); st.SendErrs != 3 || st.Bytes != 2*uint64(4+len(body)) {
		t.Fatalf("stats %+v, want 2 messages accepted and 3 dropped", st)
	}
}

// rawPeer dials endpoint 0 as peer 1 and speaks the stream protocol by
// hand.
func rawPeer(t *testing.T, book map[Addr]string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", book[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(appendStreamHello(nil, 1)); err != nil {
		t.Fatal(err)
	}
	return c
}

// expectClosed waits for the endpoint to close a raw connection.
func expectClosed(t *testing.T, c net.Conn) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection not closed by the endpoint (read: %v)", err)
	}
}

// TestTCPNoPrefixDelivered drives the two ways a message can fail to
// complete on a live connection — the reassembly passes MaxMessage, the
// peer dies mid-body — and checks that neither delivers what had arrived
// of it, that only the first is a framing violation, and that the
// endpoint still serves a well-behaved peer afterwards.
func TestTCPNoPrefixDelivered(t *testing.T) {
	book := reserveStreamBook(t, 2)
	tr, err := NewTCP(TCPConfig{Book: book, MaxMessage: 1000, MaxFragment: 400, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	recv0, ch0 := collector(8)
	if _, err := openEach(tr, 0, recv0); err != nil {
		t.Fatal(err)
	}

	// MaxMessage+1 bytes in legal fragments: torn down at the header of
	// the fragment that would pass the limit.
	var q sendQueue
	q.appendMessage(bytes.Repeat([]byte("x"), 1001), nil, 400)
	c := rawPeer(t, book)
	if _, err := c.Write(bytes.Join(q.bufs, nil)); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, c)
	c.Close()
	if st := tr.Stats(); st.Malformed != 1 || st.Delivered != 0 {
		t.Fatalf("after an over-limit reassembly: stats %+v", st)
	}

	// A whole message, then half of the next one's body, then silence.
	q = sendQueue{}
	q.appendMessage([]byte("whole"), nil, 400)
	q.appendMessage(bytes.Repeat([]byte("y"), 300), nil, 400)
	stream := bytes.Join(q.bufs, nil)
	c = rawPeer(t, book)
	if _, err := c.Write(stream[:len(stream)-150]); err != nil {
		t.Fatal(err)
	}
	expectPacket(t, ch0, packet{1, "whole"})
	c.Close()
	expectQuiet(t, ch0, 50*time.Millisecond)
	if st := tr.Stats(); st.Malformed != 1 || st.Delivered != 1 {
		t.Fatalf("after a peer died mid-body: stats %+v", st)
	}

	ep1, err := openEach(tr, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ep1.Send(0, []byte("legit"))
	expectPacket(t, ch0, packet{1, "legit"})
}
