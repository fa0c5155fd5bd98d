package transport

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/wire"
)

// encodeMessages is a test helper: frames each payload through the
// link's send queue — split into a copied head and a referenced body at
// a third of its length, so every stream the decoder tests read was
// produced by the vectored path — and returns the flattened byte stream
// plus the total fragment count.
func encodeMessages(maxFrag int, payloads ...[]byte) ([]byte, int) {
	var q sendQueue
	frags := 0
	for _, p := range payloads {
		frags += q.appendMessage(p[:len(p)/3], p[len(p)/3:], maxFrag)
	}
	stream := bytes.Join(q.bufs, nil)
	if len(stream) != q.bytes {
		panic("sendQueue.bytes disagrees with its buffers")
	}
	return stream, frags
}

// chunkReader hands its reader's bytes out in seeded random chunks of
// 1..max bytes: arbitrary TCP segment boundaries.
type chunkReader struct {
	r   io.Reader
	rng *rand.Rand
	max int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if n := 1 + c.rng.Intn(c.max); n < len(p) {
		p = p[:n]
	}
	return c.r.Read(p)
}

// readShapes are the ways a socket may deliver one byte stream; every
// decoder test runs under each of them.
var readShapes = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", func(r io.Reader) io.Reader { return r }},
	{"one-byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
	{"data-with-eof", iotest.DataErrReader},
	{"chunks-7", func(r io.Reader) io.Reader { return &chunkReader{r, rand.New(rand.NewSource(7)), 7} }},
	{"chunks-5000", func(r io.Reader) io.Reader { return &chunkReader{r, rand.New(rand.NewSource(5000)), 5000} }},
}

// decodeStream runs a decoder over src to its end, the way readConn
// does, and returns what it delivered and why it stopped.
func decodeStream(maxMessage, maxFrag int, src io.Reader) (msgs [][]byte, err error) {
	d := &streamDecoder{maxMessage: maxMessage, maxFrag: maxFrag, from: 3, deliver: func(pkts []Packet) {
		for _, p := range pkts {
			if p.From != 3 {
				panic("decoder stamped the wrong sender")
			}
			msgs = append(msgs, p.Data)
		}
	}}
	err = d.run(src)
	return msgs, err
}

func TestStreamHelloRoundTrip(t *testing.T) {
	for _, addr := range []Addr{0, 1, 127, 128, 300, 1 << 20, 1<<31 - 1} {
		hello := appendStreamHello(nil, addr)
		from, n, err := decodeStreamHello(hello)
		if err != nil || from != addr || n != len(hello) {
			t.Fatalf("hello(%d): from=%d n=%d err=%v", addr, from, n, err)
		}
		// Trailing stream bytes after the hello are not consumed.
		from, n, err = decodeStreamHello(append(hello, 0xAB, 0xCD))
		if err != nil || from != addr || n != len(hello) {
			t.Fatalf("hello(%d)+suffix: from=%d n=%d err=%v", addr, from, n, err)
		}
		// Every strict prefix reports short, never success or malformed.
		for i := 0; i < len(hello); i++ {
			if _, _, err := decodeStreamHello(hello[:i]); err != errStreamShort {
				t.Fatalf("hello(%d) prefix %d: err=%v, want errStreamShort", addr, i, err)
			}
		}
	}
}

func TestStreamHelloMalformed(t *testing.T) {
	good := appendStreamHello(nil, 7)
	bad := [][]byte{
		{0x00},                             // wrong magic
		{streamMagic, 0x00},                // wrong kind (e.g. a datagram frame byte)
		{streamMagic, streamKind, 0x02},    // wrong version
		{frameMagic, frameVersion, 3, 'x'}, // a datagram frame dialed at a stream port
		append([]byte{streamMagic, streamKind, streamVersion}, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF), // addr uvarint overflow
	}
	for i, b := range bad {
		if _, _, err := decodeStreamHello(b); !errors.Is(err, errStreamMalformed) {
			t.Fatalf("bad hello %d: err=%v, want malformed", i, err)
		}
	}
	if _, _, err := decodeStreamHello(good); err != nil {
		t.Fatalf("good hello rejected: %v", err)
	}
}

func TestStreamFragmentation(t *testing.T) {
	cases := []struct {
		size, maxFrag, wantFrags int
	}{
		{0, 100, 1},
		{1, 100, 1},
		{100, 100, 1},
		{101, 100, 2},
		{250, 100, 3},
		{1 << 20, DefaultMaxFragment, 16},
	}
	for _, tc := range cases {
		payload := make([]byte, tc.size)
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		stream, frags := encodeMessages(tc.maxFrag, payload)
		if frags != tc.wantFrags {
			t.Fatalf("size %d maxFrag %d: %d fragments, want %d", tc.size, tc.maxFrag, frags, tc.wantFrags)
		}
		for _, shape := range readShapes {
			got, err := decodeStream(tc.size+1, tc.maxFrag, shape.wrap(bytes.NewReader(stream)))
			if err != io.EOF {
				t.Fatalf("size %d maxFrag %d %s: stream ended with %v, want io.EOF", tc.size, tc.maxFrag, shape.name, err)
			}
			if len(got) != 1 || !bytes.Equal(got[0], payload) {
				t.Fatalf("size %d maxFrag %d %s: reassembly mismatch (%d messages)", tc.size, tc.maxFrag, shape.name, len(got))
			}
		}
	}
}

// TestStreamReassemblyQuickcheck is the reassembly property test:
// random payloads, random fragment limits and random read chunkings
// must always reproduce the original message sequence exactly.
func TestStreamReassemblyQuickcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(0xf4a6))
	for round := 0; round < 200; round++ {
		maxFrag := 1 + rng.Intn(512)
		nmsgs := 1 + rng.Intn(5)
		payloads := make([][]byte, nmsgs)
		for i := range payloads {
			p := make([]byte, rng.Intn(4*maxFrag))
			rng.Read(p)
			payloads[i] = p
		}
		stream, _ := encodeMessages(maxFrag, payloads...)
		chunk := 1 + rng.Intn(200)
		src := readShapes[round%len(readShapes)].wrap(
			&chunkReader{bytes.NewReader(stream), rand.New(rand.NewSource(int64(round))), chunk})
		got, err := decodeStream(8*maxFrag, maxFrag, src)
		if err != io.EOF {
			t.Fatalf("round %d: stream ended with %v (maxFrag %d chunk %d)", round, err, maxFrag, chunk)
		}
		if len(got) != nmsgs {
			t.Fatalf("round %d: %d messages, want %d (maxFrag %d chunk %d)", round, len(got), nmsgs, maxFrag, chunk)
		}
		for i := range got {
			if !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("round %d: message %d mismatch (maxFrag %d chunk %d)", round, i, maxFrag, chunk)
			}
		}
	}
}

func TestStreamDecoderViolations(t *testing.T) {
	good, _ := encodeMessages(1<<10, []byte("delivered before the violation"))
	overLimit, _ := encodeMessages(1<<10, make([]byte, 1<<12))
	cases := []struct {
		name       string
		maxMessage int
		stream     []byte
	}{
		// Reserved flag bits tear the connection down.
		{"reserved flags", 1 << 16, []byte{0x80, 0x01, 'x'}},
		// A fragment over the limit is rejected before buffering it.
		{"oversize fragment", 1 << 16, wire.NewWriter(16).Byte(0).Uvarint(1 << 11).Bytes()},
		// A pathological length (absurd size, uvarint overflow) is
		// rejected without allocating.
		{"pathological length", 1 << 16, wire.NewWriter(16).Byte(0).Uvarint(1 << 62).Bytes()},
		{"length overflow", 1 << 16, []byte{0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}},
		// An empty non-final fragment makes no progress and is rejected.
		{"empty non-final fragment", 1 << 16, []byte{0x00, 0x00}},
		// Reassembly beyond maxMessage is rejected even when every
		// fragment is individually legal.
		{"over-limit reassembly", 1 << 11, overLimit},
	}
	for _, tc := range cases {
		for _, shape := range readShapes {
			// Alone: nothing is delivered, not even a prefix.
			got, err := decodeStream(tc.maxMessage, 1<<10, shape.wrap(bytes.NewReader(tc.stream)))
			if !errors.Is(err, errStreamMalformed) || len(got) != 0 {
				t.Fatalf("%s (%s): err %v, %d messages delivered", tc.name, shape.name, err, len(got))
			}
			// After a good message: that one is delivered, nothing else.
			got, err = decodeStream(tc.maxMessage, 1<<10, shape.wrap(bytes.NewReader(append(good[:len(good):len(good)], tc.stream...))))
			if !errors.Is(err, errStreamMalformed) || len(got) != 1 || string(got[0]) != "delivered before the violation" {
				t.Fatalf("%s after a good message (%s): err %v, %d messages delivered", tc.name, shape.name, err, len(got))
			}
		}
	}
}

// TestStreamTruncation cuts a two-message stream at every byte: the
// decoder reports the connection's error, never a framing violation,
// and delivers exactly the messages that were complete — never a prefix
// of the one the cut fell in.
func TestStreamTruncation(t *testing.T) {
	first, second := bytes.Repeat([]byte("a"), 40), bytes.Repeat([]byte("b"), 50)
	stream, _ := encodeMessages(16, first, second)
	firstLen := len(stream) - func() int { s, _ := encodeMessages(16, second); return len(s) }()
	for cut := 0; cut < len(stream); cut++ {
		shape := readShapes[cut%len(readShapes)]
		got, err := decodeStream(1<<10, 16, shape.wrap(bytes.NewReader(stream[:cut])))
		if err == nil || errors.Is(err, errStreamMalformed) {
			t.Fatalf("cut %d (%s): err %v", cut, shape.name, err)
		}
		want := 0
		if cut >= firstLen {
			want = 1
		}
		if len(got) != want || (want == 1 && !bytes.Equal(got[0], first)) {
			t.Fatalf("cut %d (%s): %d messages delivered, want %d", cut, shape.name, len(got), want)
		}
	}
}

// TestStreamReassemblyBufferSizedOnce pins the allocation behaviour of
// bulk traffic: the frame header carries no total length, so the first
// 128-KiB message grows its buffer, and every repeat of it is read into
// a buffer allocated once at exactly its size.
func TestStreamReassemblyBufferSizedOnce(t *testing.T) {
	payload := make([]byte, 128<<10+40)
	for i := range payload {
		payload[i] = byte(i * 17)
	}
	stream, frags := encodeMessages(DefaultMaxFragment, payload, payload, payload, payload)
	if frags != 12 {
		t.Fatalf("%d fragments, want 12", frags)
	}
	for _, shape := range readShapes {
		got, err := decodeStream(DefaultMaxMessage, DefaultMaxFragment, shape.wrap(bytes.NewReader(stream)))
		if err != io.EOF || len(got) != 4 {
			t.Fatalf("%s: %d messages, err %v", shape.name, len(got), err)
		}
		for i, m := range got {
			if !bytes.Equal(m, payload) {
				t.Fatalf("%s: message %d corrupted", shape.name, i)
			}
			if i > 0 && cap(m) != len(m) {
				t.Fatalf("%s: message %d reassembled in a %d-byte buffer for %d bytes", shape.name, i, cap(m), len(m))
			}
		}
	}
}

// TestSendQueueSplitIsInvisible checks the vectored encoder against its
// own body-less case: wherever a message is cut into head and body, the
// stream bytes are the ones the whole message as head produces, the
// body is referenced and not copied, and the byte count covers both.
func TestSendQueueSplitIsInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for round := 0; round < 300; round++ {
		maxFrag := 1 + rng.Intn(300)
		msg := make([]byte, rng.Intn(5*maxFrag))
		rng.Read(msg)
		cut := rng.Intn(len(msg) + 1)
		var whole, split sendQueue
		// A queue is rarely empty: put the same small message ahead of both.
		whole.appendMessage([]byte("ahead"), nil, maxFrag)
		split.appendMessage([]byte("ahead"), nil, maxFrag)
		wf := whole.appendMessage(msg, nil, maxFrag)
		sf := split.appendMessage(msg[:cut], msg[cut:], maxFrag)
		if len(whole.bufs) != 1 {
			t.Fatalf("round %d: body-less messages spread over %d buffers, want one", round, len(whole.bufs))
		}
		if wf != sf || whole.bytes != split.bytes || !bytes.Equal(bytes.Join(whole.bufs, nil), bytes.Join(split.bufs, nil)) {
			t.Fatalf("round %d: head/body cut at %d of %d (maxFrag %d) changed the stream", round, cut, len(msg), maxFrag)
		}
		referenced := 0
		for _, b := range split.bufs {
			if off := cut + referenced; off < len(msg) && &b[0] == &msg[off] {
				referenced += len(b)
			}
		}
		if referenced != len(msg)-cut {
			t.Fatalf("round %d: %d of %d body bytes referenced, the rest copied", round, referenced, len(msg)-cut)
		}
	}
}

// TestStreamEveryBitFlip carries a SEALED wire frame as the stream
// payload and flips every bit of the encoded stream bytes, one at a
// time. Each flip must end in rejection: either the stream framing
// detects desync (connection teardown = the message is lost), or the
// corrupted payload reaches reassembly and the sealed-frame CRC32-C
// refuses to open it. No flip may yield a frame that opens cleanly.
func TestStreamEveryBitFlip(t *testing.T) {
	const salt = 0x5eed
	sealed := make([]byte, wire.FrameOverhead+32)
	sealed[0] = 0x07 // tag
	for i := wire.FrameOverhead; i < len(sealed); i++ {
		sealed[i] = byte(i * 13)
	}
	wire.SealFrame(sealed, salt)
	if _, _, ok := wire.OpenFrame(sealed, salt); !ok {
		t.Fatal("pristine frame does not open")
	}
	stream, _ := encodeMessages(16, sealed) // several fragments
	for bit := 0; bit < len(stream)*8; bit++ {
		mut := append([]byte(nil), stream...)
		mut[bit/8] ^= 1 << (bit % 8)
		shape := readShapes[bit%len(readShapes)]
		// Whatever the decoder delivered before the framing broke (or the
		// stream ran out) must not open either.
		msgs, _ := decodeStream(1<<16, 16, shape.wrap(bytes.NewReader(mut)))
		for _, m := range msgs {
			if _, _, ok := wire.OpenFrame(m, salt); ok {
				t.Fatalf("bit flip %d (%s) slipped through stream framing AND the sealed-frame CRC", bit, shape.name)
			}
		}
	}
}

// FuzzStreamFrame fuzzes the fragment-frame decoder the way a socket
// feeds it: arbitrary bytes in fuzzer-chosen read chunks must never
// panic, must end with an error, and must never deliver more payload
// than they carried. The same input also drives an encode→decode
// round-trip with fuzzer-chosen fragmentation, head/body split and read
// chunking, which must reproduce the payload bit-exactly.
func FuzzStreamFrame(f *testing.F) {
	seed1, _ := encodeMessages(8, []byte("hello stream"))
	seed2, _ := encodeMessages(3, []byte(""), []byte("ab"), make([]byte, 64))
	f.Add(seed1, uint16(8), uint8(3))
	f.Add(seed2, uint16(3), uint8(1))
	f.Add([]byte{0x01, 0x00}, uint16(100), uint8(7)) // empty FIN frame
	f.Add([]byte{0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint16(16), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, frag uint16, chunk uint8) {
		readChunk := int(chunk)%128 + 1
		chunked := func(b []byte) io.Reader {
			return &chunkReader{bytes.NewReader(b), rand.New(rand.NewSource(int64(frag))), readChunk}
		}

		// 1. Adversarial decode: no panic, sane consumption. Every frame
		// costs at least two header bytes on top of its payload.
		msgs, err := decodeStream(1<<16, 1<<10, chunked(data))
		if err == nil {
			t.Fatal("decoder stopped without an error")
		}
		delivered := 0
		for _, m := range msgs {
			delivered += len(m) + 2
		}
		if delivered > len(data) {
			t.Fatalf("decoder delivered %d messages worth %d stream bytes out of %d", len(msgs), delivered, len(data))
		}

		// 2. Round-trip: the input as a payload, fragmented, split and
		// chunked by fuzzer-chosen sizes, must reassemble bit-exactly.
		maxFrag := int(frag)%1024 + 1
		var q sendQueue
		cut := int(chunk) % (len(data) + 1)
		frags := q.appendMessage(data[:cut], data[cut:], maxFrag)
		if want := max(1, (len(data)+maxFrag-1)/maxFrag); frags != want {
			t.Fatalf("%d-byte payload at maxFrag %d: %d fragments, want %d", len(data), maxFrag, frags, want)
		}
		got, err := decodeStream(len(data)+1, maxFrag, chunked(bytes.Join(q.bufs, nil)))
		if err != io.EOF || len(got) != 1 || !bytes.Equal(got[0], data) {
			t.Fatalf("round-trip mismatch: %d messages, err %v", len(got), err)
		}
	})
}

func TestBackoffSchedule(t *testing.T) {
	b := NewBackoff(10*time.Millisecond, 80*time.Millisecond, 1)
	for attempt := 1; attempt <= 8; attempt++ {
		full := 10 * time.Millisecond
		for i := 1; i < attempt && full < 80*time.Millisecond; i++ {
			full *= 2
		}
		if full > 80*time.Millisecond {
			full = 80 * time.Millisecond
		}
		d := b.Delay(attempt)
		if d < full/2 || d > full {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, full/2, full)
		}
	}
	// Deterministic for a given seed.
	x, y := NewBackoff(time.Millisecond, time.Second, 99), NewBackoff(time.Millisecond, time.Second, 99)
	for i := 1; i < 10; i++ {
		if x.Delay(i) != y.Delay(i) {
			t.Fatalf("same-seed backoffs diverge at attempt %d", i)
		}
	}
}
