package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"time"

	"repro/internal/vclock"
	"repro/internal/wire"
)

// Stream wire format, shared by every stream backend (TCP today). A
// connection starts with one hello identifying the DIALING side:
//
//	magic   byte    0xD7 — same stray-rejection magic as the datagram frame
//	kind    byte    0x53 ('S') — distinguishes a stream hello from a datagram
//	version byte    1
//	from    uvarint initiator's group address
//
// after which the connection carries a sequence of fragment frames:
//
//	flags   byte    bit0 = FIN (message complete); other bits reserved, zero
//	length  uvarint fragment length in bytes
//	frag    bytes   the fragment
//
// A message is the concatenation of consecutive fragments up to and
// including the first FIN fragment. Fragmentation is what kills the
// datagram ceiling: a payload of any size up to MaxMessage crosses as
// ⌈len/MaxFragment⌉ frames and is reassembled on the far side. The
// framing layer carries no checksum of its own — payload integrity is
// the sealed inner wire frame's job (wire.SealFrame, CRC32-C), and TCP
// already covers the link — but any framing violation (bad magic, a
// reserved flag, a pathological length) is unrecoverable desync and
// tears the connection down; reconnection starts a clean stream.
const (
	streamMagic   byte = 0xD7
	streamKind    byte = 0x53 // 'S'
	streamVersion byte = 1

	streamFIN byte = 1 << 0
)

// DefaultMaxMessage bounds reassembled stream messages (and therefore
// the largest payload a stream backend accepts for sending).
const DefaultMaxMessage = 16 << 20

// DefaultMaxFragment is the default stream fragment size: large enough
// that small messages never fragment, small enough that one message
// cannot monopolize a connection's write path.
const DefaultMaxFragment = 64 << 10

// streamHelloMax bounds the hello: magic, kind, version and a uvarint
// address of at most 10 bytes.
const streamHelloMax = 13

// errStreamMalformed marks a framing violation; the connection carrying
// it must be torn down (the byte stream is desynchronized).
var errStreamMalformed = errors.New("transport: malformed stream frame")

// errStreamShort reports that a buffer holds only a prefix of a hello;
// the caller should read more bytes and retry. Never a failure.
var errStreamShort = errors.New("transport: short stream frame")

// appendStreamHello appends the connection hello for initiator from.
func appendStreamHello(dst []byte, from Addr) []byte {
	var h [streamHelloMax]byte
	h[0], h[1], h[2] = streamMagic, streamKind, streamVersion
	n := 3 + binary.PutUvarint(h[3:], uint64(from))
	return append(dst, h[:n]...)
}

// decodeStreamHello parses a connection hello from the front of b,
// returning the initiator address and the bytes consumed. err is
// errStreamShort when b holds only a hello prefix, errStreamMalformed
// when the bytes can never be a valid hello.
func decodeStreamHello(b []byte) (from Addr, n int, err error) {
	if len(b) >= 1 && b[0] != streamMagic {
		return 0, 0, errStreamMalformed
	}
	if len(b) >= 2 && b[1] != streamKind {
		return 0, 0, errStreamMalformed
	}
	if len(b) >= 3 && b[2] != streamVersion {
		return 0, 0, errStreamMalformed
	}
	if len(b) < 4 {
		return 0, 0, errStreamShort
	}
	r := wire.NewReader(b[3:])
	f := r.Uvarint()
	if r.Err() != nil {
		// A uvarint cut short is indistinguishable from one that needs
		// more bytes; only an overflow (>10 bytes available) is final.
		if len(b) >= streamHelloMax {
			return 0, 0, errStreamMalformed
		}
		return 0, 0, errStreamShort
	}
	if f >= 1<<31 {
		return 0, 0, errStreamMalformed
	}
	return Addr(f), 3 + r.Pos(), nil
}

// sendQueue is what one link has accepted and not yet written, held as
// the slices a single vectored write takes. Copied bytes (fragment
// headers, message heads, whole body-less messages) accumulate in
// chunk; bodies are referenced where the caller left them. The zero
// value is an empty queue.
type sendQueue struct {
	bufs  net.Buffers // the stream bytes, in order
	chunk []byte      // backing store of the copied entries of bufs
	tail  int         // offset in chunk where bufs' last entry starts, when open
	open  bool        // bufs' last entry is chunk's tail and grows in place
	bytes int         // total length of bufs, copied and referenced alike
}

// copyIn appends a copy of b to the stream. Consecutive copies extend
// one entry of bufs; when append moves chunk, earlier entries keep
// aliasing the old array, whose bytes are final.
func (q *sendQueue) copyIn(b []byte) {
	if len(b) == 0 {
		return
	}
	if !q.open {
		q.open, q.tail = true, len(q.chunk)
		q.bufs = append(q.bufs, nil)
	}
	q.chunk = append(q.chunk, b...)
	q.bufs[len(q.bufs)-1] = q.chunk[q.tail:]
	q.bytes += len(b)
}

// ref appends b itself to the stream; see Endpoint.Enqueue for what
// that asks of the caller.
func (q *sendQueue) ref(b []byte) {
	if len(b) == 0 {
		return
	}
	q.bufs = append(q.bufs, b)
	q.open = false
	q.bytes += len(b)
}

// appendMessage queues head‖body as one stream message, in fragment
// frames of at most maxFrag bytes each, and returns the number of
// fragments (always ≥ 1; an empty message is a single empty FIN frame).
// Frame headers and head are copied, body is referenced.
func (q *sendQueue) appendMessage(head, body []byte, maxFrag int) (frags int) {
	rest := len(head) + len(body)
	for {
		n := min(rest, maxFrag)
		rest -= n
		var hdr [1 + binary.MaxVarintLen64]byte
		if rest == 0 {
			hdr[0] = streamFIN
		}
		q.copyIn(hdr[:1+binary.PutUvarint(hdr[1:], uint64(n))])
		k := min(n, len(head))
		q.copyIn(head[:k])
		q.ref(body[:n-k])
		head, body = head[k:], body[n-k:]
		frags++
		if rest == 0 {
			return frags
		}
	}
}

// streamReadBuf is the decoder's read buffer. Frame headers and bodies
// shorter than it are parsed out of it, so one read still collects a
// burst of small messages; a longer body is read from the connection
// straight into the message (bufio.Reader bypasses its buffer for a
// read at least this large), so of a 64 KiB fragment only the bytes
// that arrived with its header are copied twice.
const streamReadBuf = 4 << 10

// streamDecoder reassembles messages from a connection's fragment
// frames and hands them to deliver in batches: the messages completed
// between two reads of the connection are one batch, since only a read
// can block. One decoder per connection; not safe for concurrent use.
type streamDecoder struct {
	maxMessage int
	maxFrag    int
	from       Addr           // sender stamped on every packet
	deliver    func([]Packet) // receives ownership of the batch

	src      io.Reader
	batch    []Packet
	sizeHint int // size of the last multi-fragment message
}

// Read is the decoder's view of the connection: whatever is complete is
// delivered before the read that may wait for more.
func (d *streamDecoder) Read(p []byte) (int, error) {
	d.flush()
	return d.src.Read(p)
}

func (d *streamDecoder) flush() {
	if len(d.batch) > 0 {
		d.deliver(d.batch)
		d.batch = nil
	}
}

// run decodes src until it fails, and returns why: an error wrapping
// errStreamMalformed is a framing violation (the stream is
// desynchronized and the connection must be torn down), anything else
// is the connection's own error. Either way every message completed
// before it has been delivered and the partial one is discarded.
func (d *streamDecoder) run(src io.Reader) error {
	d.src = src
	br := bufio.NewReaderSize(d, streamReadBuf)
	defer d.flush()
	var msg []byte // message under reassembly, nil between messages
	frags := 0
	for {
		flags, err := br.ReadByte()
		if err != nil {
			return err
		}
		if flags&^streamFIN != 0 {
			return fmt.Errorf("%w: reserved flag bits %#02x", errStreamMalformed, flags)
		}
		var lb [binary.MaxVarintLen64]byte
		n := 0
		for more := true; more && n < len(lb); n++ {
			if lb[n], err = br.ReadByte(); err != nil {
				return err
			}
			more = lb[n] >= 0x80
		}
		ln, k := binary.Uvarint(lb[:n])
		if k <= 0 {
			return fmt.Errorf("%w: fragment length overflow", errStreamMalformed)
		}
		fin := flags&streamFIN != 0
		if ln > uint64(d.maxFrag) {
			return fmt.Errorf("%w: %d-byte fragment exceeds limit %d", errStreamMalformed, ln, d.maxFrag)
		}
		if ln == 0 && !fin {
			// An empty non-final fragment makes no reassembly progress; a
			// peer emitting one is broken (or an attack on the read loop).
			return fmt.Errorf("%w: empty non-final fragment", errStreamMalformed)
		}
		if len(msg)+int(ln) > d.maxMessage {
			return fmt.Errorf("%w: reassembled message exceeds limit %d", errStreamMalformed, d.maxMessage)
		}
		if msg == nil {
			// The header carries no total length; bulk traffic repeats its
			// sizes, so a message that continues is sized for the previous
			// one instead of doubling up from one fragment.
			size := int(ln)
			if !fin {
				size = max(d.sizeHint, 2*size)
			}
			msg = make([]byte, 0, size)
		}
		have := len(msg)
		msg = slices.Grow(msg, int(ln))[:have+int(ln)]
		if _, err := io.ReadFull(br, msg[have:]); err != nil {
			return err
		}
		frags++
		if !fin {
			continue
		}
		if frags > 1 {
			d.sizeHint = len(msg)
		}
		d.batch = append(d.batch, Packet{From: d.from, Data: msg})
		msg, frags = nil, 0
	}
}

// Backoff computes capped exponential retry delays with jitter: attempt
// n (1-based) waits base·2^(n-1) capped at max, jittered uniformly into
// [d/2, d] so peers retrying in lockstep spread out. It is the single
// backoff schedule for everything that redials a stream peer — the TCP
// backend's reconnect path and the dpu join handshake. Not safe for
// concurrent use; give each retry loop its own Backoff.
type Backoff struct {
	base, max time.Duration
	rng       *rand.Rand
}

// NewBackoff returns a Backoff over [base, max] with jitter drawn from
// a deterministic seed.
func NewBackoff(base, max time.Duration, seed int64) *Backoff {
	if base <= 0 {
		base = time.Millisecond
	}
	if max < base {
		max = base
	}
	return &Backoff{base: base, max: max, rng: rand.New(rand.NewSource(seed))}
}

// Delay returns the wait before retrying after failed attempt number
// attempt (1-based).
func (b *Backoff) Delay(attempt int) time.Duration {
	d := b.base
	for i := 1; i < attempt && d < b.max; i++ {
		d *= 2
	}
	if d > b.max {
		d = b.max
	}
	half := d / 2
	return half + time.Duration(b.rng.Int63n(int64(half)+1))
}

// WaitBackoff sleeps d on the injected clock, aborting early when ctx
// is cancelled. Under a virtual clock the wait consumes virtual time
// only, so retry loops stay deterministic in simulation.
func WaitBackoff(ctx context.Context, clock vclock.Clock, d time.Duration) error {
	if clock == nil {
		clock = vclock.Wall
	}
	done := make(chan struct{})
	tm := clock.AfterFunc(d, func() { close(done) })
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		tm.Stop()
		return ctx.Err()
	}
}

// DialStream dials a stream peer with a per-attempt timeout, honoring
// an earlier ctx deadline. It is the one dial path for stream
// connections — the TCP backend and the dpu join handshake both go
// through it, so their retry/timeout semantics stay aligned.
func DialStream(ctx context.Context, addr string, timeout time.Duration) (net.Conn, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}
