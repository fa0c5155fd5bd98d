package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
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

// errStreamShort reports that a buffer holds only a prefix of a frame;
// the caller should read more bytes and retry. Never a failure.
var errStreamShort = errors.New("transport: short stream frame")

// appendStreamHello appends the connection hello for initiator from.
func appendStreamHello(dst []byte, from Addr) []byte {
	w := wire.NewWriter(streamHelloMax)
	w.Byte(streamMagic).Byte(streamKind).Byte(streamVersion).Uvarint(uint64(from))
	return append(dst, w.Bytes()...)
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

// appendStreamMessage appends payload to dst as fragment frames of at
// most maxFrag bytes each and returns the extended buffer plus the
// number of fragments emitted (always ≥ 1; an empty payload is a single
// empty FIN frame).
func appendStreamMessage(dst []byte, payload []byte, maxFrag int) ([]byte, int) {
	frags := 0
	for {
		frag := payload
		fin := byte(streamFIN)
		if len(frag) > maxFrag {
			frag = frag[:maxFrag]
			fin = 0
		}
		payload = payload[len(frag):]
		w := wire.NewWriter(2 + 10)
		w.Byte(fin).Uvarint(uint64(len(frag)))
		dst = append(dst, w.Bytes()...)
		dst = append(dst, frag...)
		frags++
		if fin != 0 {
			return dst, frags
		}
	}
}

// streamDecoder reassembles messages from a stream of fragment frames.
// One decoder per connection; not safe for concurrent use.
type streamDecoder struct {
	maxMessage int
	maxFrag    int
	pending    []byte // partial message under reassembly (nil between messages)
	mid        bool   // a fragment has been consumed since the last FIN
	sizeHint   int    // size of the last multi-fragment message
}

// feed parses every complete frame at the front of buf, invoking emit
// once per completed message with an owned slice (the decoder keeps no
// reference). It returns the number of bytes consumed; the caller
// retains buf[n:] for the next feed. A non-nil error is a framing
// violation: the connection is desynchronized and must be torn down.
func (d *streamDecoder) feed(buf []byte, emit func(msg []byte)) (int, error) {
	consumed := 0
	for {
		b := buf[consumed:]
		if len(b) < 2 {
			return consumed, nil
		}
		flags := b[0]
		if flags&^streamFIN != 0 {
			return consumed, fmt.Errorf("%w: reserved flag bits %#02x", errStreamMalformed, flags)
		}
		r := wire.NewReader(b[1:])
		ln := r.Uvarint()
		if r.Err() != nil {
			if len(b) >= 1+10 {
				return consumed, fmt.Errorf("%w: fragment length overflow", errStreamMalformed)
			}
			return consumed, nil // length prefix not complete yet
		}
		if ln > uint64(d.maxFrag) {
			return consumed, fmt.Errorf("%w: %d-byte fragment exceeds limit %d", errStreamMalformed, ln, d.maxFrag)
		}
		if ln == 0 && flags&streamFIN == 0 {
			// An empty non-final fragment makes no reassembly progress; a
			// peer emitting one is broken (or an attack on the read loop).
			return consumed, fmt.Errorf("%w: empty non-final fragment", errStreamMalformed)
		}
		if len(d.pending)+int(ln) > d.maxMessage {
			return consumed, fmt.Errorf("%w: reassembled message exceeds limit %d", errStreamMalformed, d.maxMessage)
		}
		header := 1 + r.Pos()
		if len(b) < header+int(ln) {
			return consumed, nil // fragment body not complete yet
		}
		frag := b[header : header+int(ln)]
		consumed += header + int(ln)
		if flags&streamFIN != 0 {
			if !d.mid && d.pending == nil {
				// Whole message in one frame: hand the receiver its own
				// copy without an intermediate pending buffer.
				msg := append([]byte(nil), frag...)
				emit(msg)
				continue
			}
			msg := append(d.pending, frag...)
			d.pending, d.mid, d.sizeHint = nil, false, len(msg)
			emit(msg)
			continue
		}
		if d.pending == nil {
			// The header carries no total length; bulk traffic repeats
			// its sizes, so size the buffer for the previous message
			// instead of doubling up from one fragment.
			d.pending = make([]byte, 0, max(d.sizeHint, 2*len(frag)))
		}
		d.pending = append(d.pending, frag...)
		d.mid = true
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
