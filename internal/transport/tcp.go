package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/vclock"
)

// Process-wide counters for the stream backend, next to the batch and
// fault counters (see docs/OPERATIONS.md). Dials count every outbound
// connection attempt; reconnects count the attempts that replace a
// previously established connection to the same peer; fragments count
// the extra frames emitted for messages that exceeded one fragment.
var (
	streamDialsCounter      = metrics.NewCounter("transport.stream_dials")
	streamReconnectsCounter = metrics.NewCounter("transport.stream_reconnects")
	streamFragmentsCounter  = metrics.NewCounter("transport.stream_fragments")
)

// TCPConfig configures a stream-oriented real-socket transport.
type TCPConfig struct {
	// Book maps every group address to its TCP "host:port". Addresses
	// are kept as strings and resolved by each dial, so DNS changes and
	// runtime AddRoute updates take effect on the next connection.
	Book map[Addr]string
	// MaxMessage bounds a reassembled message and therefore the largest
	// payload Send accepts (default DefaultMaxMessage). Peers must agree
	// on it: a message over the receiver's limit is a framing violation
	// that tears the connection down.
	MaxMessage int
	// MaxFragment bounds one stream fragment (default DefaultMaxFragment).
	MaxFragment int
	// QueueLimit caps the bytes parked per peer while its connection is
	// down or slow (default 4 MiB). Messages beyond it are dropped as
	// loss — a stream peer that stays unreachable must not grow the
	// sender's heap without bound.
	QueueLimit int
	// Logf, when non-nil, receives diagnostics (dial failures, malformed
	// frames). The transport never logs through any other channel.
	Logf func(format string, args ...any)
	// Clock schedules the reconnect backoff timers (default vclock.Wall).
	// Socket I/O deadlines are kernel timers and stay on wall time.
	Clock vclock.Clock
	// DialTimeout bounds one connection attempt (default 3s).
	DialTimeout time.Duration
	// RedialBase/RedialMax shape the per-peer reconnect backoff:
	// base·2^(attempt-1) capped at max, jittered into [d/2, d]
	// (defaults 20ms / 1s).
	RedialBase time.Duration
	RedialMax  time.Duration
	// Seed feeds the backoff jitter so simulated runs are reproducible.
	Seed int64
}

// TCPStats counts stream activity. Retrieve a snapshot with Stats.
type TCPStats struct {
	Dials      uint64 // outbound connection attempts
	Accepted   uint64 // inbound connections that completed the hello
	Reconnects uint64 // dial attempts replacing a previously live connection
	Sent       uint64 // messages written to a connection
	Delivered  uint64 // messages reassembled and delivered to receivers
	Fragments  uint64 // fragment frames sent for multi-fragment messages
	Malformed  uint64 // framing violations (each tears a connection down)
	SendErrs   uint64 // drops: unknown route, oversize, queue overflow, closed
	Bytes      uint64 // payload bytes sent
}

// TCPTransport sends length-prefixed stream frames over real net.Conn
// connections using a mutable address book. It satisfies Transport and
// Router, so the stack above runs unmodified over streams.
//
// Connections are managed per (endpoint, peer) pair: the first send to
// a peer dials lazily, a single accept loop per endpoint admits inbound
// connections, a dead connection is redialed with capped backoff on the
// injected clock the next time traffic needs it, and when both sides
// dial simultaneously the connection initiated by the LOWER address
// wins (both sides apply the same rule, so the pair converges on one
// connection; frames in flight on the loser are dropped, as loss).
// Membership drives the lifecycle through Router: AddRoute admits a
// joiner, RemoveRoute tears down the peer's connection and queue.
type TCPTransport struct {
	cfg TCPConfig

	bookMu sync.RWMutex
	book   map[Addr]string

	mu     sync.Mutex
	eps    map[Addr]*tcpEndpoint
	closed bool

	dials, accepted, reconnects         atomic.Uint64
	sent, delivered, fragments          atomic.Uint64
	malformed, sendErrs, payloadedBytes atomic.Uint64
}

// NewTCP validates the address book and returns a stream transport. No
// listeners are bound until OpenBatch.
func NewTCP(cfg TCPConfig) (*TCPTransport, error) {
	if len(cfg.Book) == 0 {
		return nil, fmt.Errorf("transport: empty address book")
	}
	if cfg.MaxMessage <= 0 {
		cfg.MaxMessage = DefaultMaxMessage
	}
	if cfg.MaxFragment <= 0 {
		cfg.MaxFragment = DefaultMaxFragment
	}
	if cfg.MaxFragment > cfg.MaxMessage {
		cfg.MaxFragment = cfg.MaxMessage
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 4 << 20
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.Wall
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 3 * time.Second
	}
	if cfg.RedialBase <= 0 {
		cfg.RedialBase = 20 * time.Millisecond
	}
	if cfg.RedialMax <= 0 {
		cfg.RedialMax = time.Second
	}
	book := make(map[Addr]string, len(cfg.Book))
	for a, s := range cfg.Book {
		if _, _, err := net.SplitHostPort(s); err != nil {
			return nil, fmt.Errorf("transport: address book entry %d (%q): %w", a, s, err)
		}
		book[a] = s
	}
	return &TCPTransport{cfg: cfg, book: book, eps: make(map[Addr]*tcpEndpoint)}, nil
}

func (t *TCPTransport) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

// OpenBatch binds the TCP listener for addr's book entry and starts its
// accept loop. The messages completed between two socket reads arrive
// in one batch; Flush writes each peer's queue with one vectored write.
func (t *TCPTransport) OpenBatch(addr Addr, recv RecvFunc) (Endpoint, error) {
	if recv == nil {
		return nil, fmt.Errorf("transport: OpenBatch with nil receiver")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	if _, dup := t.eps[addr]; dup {
		return nil, fmt.Errorf("transport: endpoint %d already open", addr)
	}
	t.bookMu.RLock()
	bind, ok := t.book[addr]
	t.bookMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("transport: address %d not in book", addr)
	}
	l, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, fmt.Errorf("transport: bind %d at %s: %w", addr, bind, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ep := &tcpEndpoint{
		tr: t, addr: addr, listener: l, recv: recv,
		ctx: ctx, cancel: cancel,
		links: make(map[Addr]*tcpLink),
		pend:  make(map[net.Conn]struct{}),
	}
	t.eps[addr] = ep
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

// AddRoute maps a group address to a "host:port" endpoint at runtime.
// Membership views use it to admit a joining node on every running
// process. If the address was already routed elsewhere, the stale
// connection is torn down so the next send dials the new endpoint.
func (t *TCPTransport) AddRoute(addr Addr, endpoint string) error {
	if _, _, err := net.SplitHostPort(endpoint); err != nil {
		return fmt.Errorf("transport: route %d (%q): %w", addr, endpoint, err)
	}
	t.bookMu.Lock()
	prev, had := t.book[addr]
	t.book[addr] = endpoint
	t.bookMu.Unlock()
	if had && prev != endpoint {
		t.mu.Lock()
		eps := t.snapshotEndpointsLocked()
		t.mu.Unlock()
		for _, ep := range eps {
			ep.dropLink(addr)
		}
	}
	return nil
}

// RemoveRoute retires an address from the book, closes any connection
// to it and discards its queued frames; subsequent sends are dropped as
// loss. Used when a member is evicted from the view.
func (t *TCPTransport) RemoveRoute(addr Addr) {
	t.bookMu.Lock()
	delete(t.book, addr)
	t.bookMu.Unlock()
	t.mu.Lock()
	eps := t.snapshotEndpointsLocked()
	t.mu.Unlock()
	for _, ep := range eps {
		ep.dropLink(addr)
	}
}

func (t *TCPTransport) snapshotEndpointsLocked() []*tcpEndpoint {
	eps := make([]*tcpEndpoint, 0, len(t.eps))
	for _, ep := range t.eps {
		eps = append(eps, ep)
	}
	return eps
}

func (t *TCPTransport) route(addr Addr) (string, bool) {
	t.bookMu.RLock()
	s, ok := t.book[addr]
	t.bookMu.RUnlock()
	return s, ok
}

// Stats returns a snapshot of stream counters.
func (t *TCPTransport) Stats() TCPStats {
	return TCPStats{
		Dials:      t.dials.Load(),
		Accepted:   t.accepted.Load(),
		Reconnects: t.reconnects.Load(),
		Sent:       t.sent.Load(),
		Delivered:  t.delivered.Load(),
		Fragments:  t.fragments.Load(),
		Malformed:  t.malformed.Load(),
		SendErrs:   t.sendErrs.Load(),
		Bytes:      t.payloadedBytes.Load(),
	}
}

// Close detaches every endpoint and rejects further Opens.
func (t *TCPTransport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	eps := t.snapshotEndpointsLocked()
	t.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
}

type tcpEndpoint struct {
	tr       *TCPTransport
	addr     Addr
	listener net.Listener
	recv     RecvFunc
	ctx      context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup

	linkMu sync.Mutex
	links  map[Addr]*tcpLink

	// pendMu guards inbound connections still mid-hello: they belong to
	// no link yet, so Close must reach them directly.
	pendMu sync.Mutex
	pend   map[net.Conn]struct{}

	// dirty is the executor-confined Enqueue/Flush state: links touched
	// by Enqueue since the last Flush, in first-touch order. Send, safe
	// from any goroutine, kicks its link itself instead.
	dirty []*tcpLink

	closed atomic.Bool
}

// Addr returns the endpoint's group address.
func (e *tcpEndpoint) Addr() Addr { return e.addr }

// Send frames data as one stream message and hands it to the peer
// link's writer, dialing lazily if no connection is up. Failures
// (unknown address, oversized payload, full queue, closed endpoint)
// drop the message, as network loss would; RP2P's retransmission
// recovers.
func (e *tcpEndpoint) Send(to Addr, data []byte) {
	if l := e.park(to, data, nil); l != nil {
		l.kick()
	}
}

// Enqueue frames head‖body as one message onto the peer link's queue
// for the next Flush: head is copied, body stays where it is until the
// link's writer has written it (see Endpoint).
func (e *tcpEndpoint) Enqueue(to Addr, head, body []byte) {
	l := e.park(to, head, body)
	if l == nil {
		return
	}
	for _, d := range e.dirty {
		if d == l {
			return
		}
	}
	e.dirty = append(e.dirty, l)
}

// Flush wakes the writer of every link touched by Enqueue since the
// previous Flush; each writer drains its whole queue with one writev,
// so one executor pass costs one vectored write per peer.
func (e *tcpEndpoint) Flush() {
	for i, l := range e.dirty {
		l.kick()
		e.dirty[i] = nil
	}
	e.dirty = e.dirty[:0]
}

// park frames head‖body onto to's link queue and returns the link, or
// nil when the message was dropped.
func (e *tcpEndpoint) park(to Addr, head, body []byte) *tcpLink {
	t := e.tr
	if e.closed.Load() {
		t.sendErrs.Add(1)
		return nil
	}
	if _, ok := t.route(to); !ok {
		t.sendErrs.Add(1)
		t.logf("transport: drop send %d->%d: address not in book", e.addr, to)
		return nil
	}
	size := len(head) + len(body)
	if size > t.cfg.MaxMessage {
		t.sendErrs.Add(1)
		t.logf("transport: drop send %d->%d: %d-byte payload exceeds stream limit %d",
			e.addr, to, size, t.cfg.MaxMessage)
		return nil
	}
	l := e.link(to)
	if l == nil {
		t.sendErrs.Add(1)
		return nil
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		t.sendErrs.Add(1)
		return nil
	}
	if l.q.bytes > t.cfg.QueueLimit {
		l.mu.Unlock()
		t.sendErrs.Add(1)
		t.logf("transport: drop send %d->%d: peer queue over %d bytes", e.addr, to, t.cfg.QueueLimit)
		return nil
	}
	frags := l.q.appendMessage(head, body, t.cfg.MaxFragment)
	l.mu.Unlock()
	if frags > 1 {
		t.fragments.Add(uint64(frags))
		streamFragmentsCounter.Add(uint64(frags))
	}
	t.payloadedBytes.Add(uint64(size))
	return l
}

// link returns the live link for peer, creating it (and its writer
// goroutine) on first use.
func (e *tcpEndpoint) link(peer Addr) *tcpLink {
	e.linkMu.Lock()
	defer e.linkMu.Unlock()
	if e.closed.Load() {
		return nil
	}
	if l, ok := e.links[peer]; ok {
		return l
	}
	l := &tcpLink{ep: e, peer: peer, wake: make(chan struct{}, 1)}
	e.links[peer] = l
	e.wg.Add(1)
	go l.runWriter()
	return l
}

// dropLink tears down the link to peer: its connection is closed, its
// queue discarded, its writer stopped. The next send (if the peer is
// ever re-routed) builds a fresh link.
func (e *tcpEndpoint) dropLink(peer Addr) {
	e.linkMu.Lock()
	l := e.links[peer]
	delete(e.links, peer)
	e.linkMu.Unlock()
	if l != nil {
		l.shutdown()
	}
}

// acceptLoop admits inbound connections: each one opens with a hello
// identifying the dialing peer, after which the connection joins that
// peer's link (or loses the duplicate tie-break and is closed).
func (e *tcpEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.listener.Accept()
		if err != nil {
			// Listener closed (endpoint shutdown) or unrecoverable.
			return
		}
		e.wg.Add(1)
		go e.admit(conn)
	}
}

// admit reads the hello off an inbound connection and registers it with
// the initiating peer's link.
func (e *tcpEndpoint) admit(conn net.Conn) {
	defer e.wg.Done()
	t := e.tr
	e.pendMu.Lock()
	if e.closed.Load() {
		e.pendMu.Unlock()
		conn.Close()
		return
	}
	e.pend[conn] = struct{}{}
	e.pendMu.Unlock()
	defer func() {
		e.pendMu.Lock()
		delete(e.pend, conn)
		e.pendMu.Unlock()
	}()
	//dpulint:ignore clocktime TCP I/O deadline on a real socket; kernel OS timers are wall-clock by definition
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 0, streamHelloMax)
	var from Addr
	for {
		n, err := conn.Read(buf[len(buf):cap(buf)])
		if n > 0 {
			buf = buf[:len(buf)+n]
		}
		if err != nil {
			conn.Close()
			return
		}
		var hn int
		from, hn, err = decodeStreamHello(buf)
		if err == nil {
			buf = buf[hn:]
			break
		}
		if err != errStreamShort {
			t.malformed.Add(1)
			t.logf("transport: endpoint %d: rejected inbound connection: %v", e.addr, err)
			conn.Close()
			return
		}
	}
	var zero time.Time
	conn.SetReadDeadline(zero)
	if _, ok := t.route(from); !ok || from == e.addr {
		// Not in the book (evicted, or a stray) — refuse.
		t.logf("transport: endpoint %d: rejected inbound connection from unrouted %d", e.addr, from)
		conn.Close()
		return
	}
	l := e.link(from)
	if l == nil {
		conn.Close()
		return
	}
	t.accepted.Add(1)
	// Inbound connections were initiated by the remote peer.
	if l.adopt(conn, from) {
		e.wg.Add(1)
		go l.readConn(conn, io.MultiReader(bytes.NewReader(buf), conn))
	}
}

// recvMsgs delivers one decoder batch unless the endpoint has closed.
func (e *tcpEndpoint) recvMsgs(pkts []Packet) {
	if e.closed.Load() {
		return
	}
	e.tr.delivered.Add(uint64(len(pkts)))
	e.recv(pkts)
}

// decode runs a stream decoder for messages from peer over src until
// the stream ends, and counts a framing violation.
func (e *tcpEndpoint) decode(peer Addr, src io.Reader) {
	t := e.tr
	dec := &streamDecoder{maxMessage: t.cfg.MaxMessage, maxFrag: t.cfg.MaxFragment, from: peer, deliver: e.recvMsgs}
	if err := dec.run(src); errors.Is(err, errStreamMalformed) {
		t.malformed.Add(1)
		t.logf("transport: endpoint %d: stream from %d desynchronized: %v", e.addr, peer, err)
	}
}

// Close shuts the listener and every link down and waits for all
// endpoint goroutines (accept loop, link writers, connection readers)
// to exit.
func (e *tcpEndpoint) Close() {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	e.cancel()
	e.listener.Close()
	e.pendMu.Lock()
	for c := range e.pend {
		c.Close()
	}
	e.pendMu.Unlock()
	e.linkMu.Lock()
	links := make([]*tcpLink, 0, len(e.links))
	for _, l := range e.links {
		links = append(links, l)
	}
	e.links = make(map[Addr]*tcpLink)
	e.linkMu.Unlock()
	for _, l := range links {
		l.shutdown()
	}
	e.wg.Wait()
	t := e.tr
	t.mu.Lock()
	if t.eps[e.addr] == e {
		delete(t.eps, e.addr)
	}
	t.mu.Unlock()
}

// tcpLink is the connection manager for one (endpoint, peer) pair: a
// queue of framed messages, at most one live connection, and a writer
// goroutine that dials lazily and redials with capped backoff.
type tcpLink struct {
	ep   *tcpEndpoint
	peer Addr
	wake chan struct{} // capacity 1: writer wake-up

	mu            sync.Mutex
	q             sendQueue // framed messages awaiting write
	conn          net.Conn  // canonical connection (nil while down)
	connInitiator Addr      // dialing side of conn, for the tie-break
	everUp        bool      // a connection has been established before
	closed        bool
}

// kick wakes the writer; a no-op if a wake-up is already queued.
func (l *tcpLink) kick() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// adopt installs c as the link's connection, applying the duplicate
// tie-break: if a connection is already up, the one whose INITIATOR has
// the lower address wins; on a tie (the peer re-dialed after losing its
// old connection) the newer one wins. Returns false when c lost and was
// closed; the caller starts a read loop only for adopted connections.
func (l *tcpLink) adopt(c net.Conn, initiator Addr) bool {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		c.Close()
		return false
	}
	var evicted net.Conn
	if l.conn != nil {
		if l.connInitiator < initiator {
			l.mu.Unlock()
			c.Close()
			return false
		}
		evicted = l.conn
	}
	l.conn, l.connInitiator, l.everUp = c, initiator, true
	l.mu.Unlock()
	if evicted != nil {
		// Closing wakes its read loop, which clears any stale state.
		evicted.Close()
	}
	return true
}

// dropConn clears c as the link's connection (if it still is) and
// closes it; the next traffic redials.
func (l *tcpLink) dropConn(c net.Conn) {
	l.mu.Lock()
	if l.conn == c {
		l.conn = nil
	}
	l.mu.Unlock()
	c.Close()
}

// shutdown closes the link permanently: queued frames are discarded and
// the live connection (if any) is closed, which unblocks the reader and
// writer goroutines.
func (l *tcpLink) shutdown() {
	l.mu.Lock()
	l.closed = true
	l.q = sendQueue{}
	c := l.conn
	l.conn = nil
	l.mu.Unlock()
	if c != nil {
		c.Close()
	}
	l.kick()
}

// runWriter is the link's writer goroutine: woken by kick, it drains
// the whole queue with one vectored write per wake-up (net.Buffers on a
// TCP connection is writev), dialing (and redialing, with capped
// backoff on the injected clock) whenever traffic finds the connection
// down.
func (l *tcpLink) runWriter() {
	e := l.ep
	defer e.wg.Done()
	t := e.tr
	backoff := NewBackoff(t.cfg.RedialBase, t.cfg.RedialMax,
		t.cfg.Seed^(int64(e.addr)<<16)^int64(l.peer))
	for {
		select {
		case <-l.wake:
		case <-e.ctx.Done():
			return
		}
		for {
			l.mu.Lock()
			if l.closed {
				l.mu.Unlock()
				return
			}
			if l.q.bytes == 0 {
				l.mu.Unlock()
				break
			}
			if l.peer == e.addr {
				// Self-addressed traffic short-circuits the socket: decode
				// our own frames and deliver on this (transport-owned)
				// goroutine. Dialing our own listener would put both halves
				// of one connection on this link and confuse the tie-break.
				bufs := l.q.bufs
				l.q = sendQueue{}
				l.mu.Unlock()
				e.decode(e.addr, &bufs)
				t.sent.Add(1)
				continue
			}
			conn := l.conn
			if conn == nil {
				l.mu.Unlock()
				if !l.connect(backoff) {
					return // link closed or endpoint shut down while dialing
				}
				continue
			}
			bufs := l.q.bufs
			l.q = sendQueue{}
			l.mu.Unlock()
			if _, err := bufs.WriteTo(conn); err != nil {
				// The frames in bufs are lost, as network loss; the stream
				// restarts clean on the next connection.
				t.sendErrs.Add(1)
				t.logf("transport: %d->%d: write: %v", e.addr, l.peer, err)
				l.dropConn(conn)
				continue
			}
			t.sent.Add(1)
		}
	}
}

// connect establishes a connection for the link, retrying with capped
// backoff until it succeeds, the route disappears, or the link/endpoint
// closes. Returns false when the writer should exit.
func (l *tcpLink) connect(backoff *Backoff) bool {
	e := l.ep
	t := e.tr
	for attempt := 1; ; attempt++ {
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return false
		}
		if l.conn != nil {
			// An inbound connection arrived while we were backing off.
			l.mu.Unlock()
			return true
		}
		redial := l.everUp
		l.mu.Unlock()
		addr, ok := t.route(l.peer)
		if !ok {
			// Evicted mid-dial: drop the queued frames as loss.
			l.mu.Lock()
			l.q = sendQueue{}
			l.mu.Unlock()
			return true
		}
		t.dials.Add(1)
		streamDialsCounter.Add(1)
		if redial {
			t.reconnects.Add(1)
			streamReconnectsCounter.Add(1)
		}
		conn, err := DialStream(e.ctx, addr, t.cfg.DialTimeout)
		if err == nil {
			hello := appendStreamHello(nil, e.addr)
			if _, werr := conn.Write(hello); werr != nil {
				err = werr
				conn.Close()
			} else if l.adopt(conn, e.addr) {
				e.wg.Add(1)
				go l.readConn(conn, conn)
				return true
			} else {
				// Lost the tie-break to an inbound connection: use that one.
				return true
			}
		}
		t.logf("transport: %d->%d: dial %s: %v", e.addr, l.peer, addr, err)
		if werr := WaitBackoff(e.ctx, t.cfg.Clock, backoff.Delay(attempt)); werr != nil {
			return false // endpoint shutting down
		}
	}
}

// readConn reassembles messages off one connection until it dies or the
// endpoint closes. src is conn, preceded by whatever admit read past the
// hello.
func (l *tcpLink) readConn(conn net.Conn, src io.Reader) {
	e := l.ep
	defer e.wg.Done()
	defer l.dropConn(conn)
	e.decode(l.peer, src)
}
