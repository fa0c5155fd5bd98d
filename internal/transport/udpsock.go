package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// Process-wide counters for the batched-syscall backend, next to the
// fault counters so operators can see at a glance whether syscall
// amortization is engaged (see docs/OPERATIONS.md).
var (
	batchSendsCounter = metrics.NewCounter("transport.batch_sends")
	batchRecvsCounter = metrics.NewCounter("transport.batch_recvs")
)

// Real-socket datagram layout, encoded with the internal/wire codec
// shared by every protocol header:
//
//	magic   byte    0xD7 — rejects strays from other programs
//	version byte    2
//	from    uvarint sender's group address
//	then one or more segments, which tile the rest of the datagram:
//	  length  uvarint
//	  payload length bytes: one Send's data or one Enqueue's head‖body
//
// A Flush packs the payloads it sends to one peer, in Enqueue order,
// into as few datagrams as cross the endpoint's link unfragmented (see
// linkCap); a Send is an Enqueue and a Flush. Decoding is
// all-or-nothing: a datagram whose segments do not tile it exactly is
// dropped whole and counted once, so no prefix of it is ever delivered.
// Version 1 (one payload, no length) is not accepted.
//
// The sender's address travels in the frame rather than being inferred
// from the socket source address, so the address book may point at
// NAT'd or multi-homed peers whose observed source differs from their
// book entry. The group is mutually trusting (as in the paper's
// cluster); authentication is out of scope.
const (
	frameMagic   byte = 0xD7
	frameVersion byte = 2
)

// MaxDatagram is the default receive buffer and the largest datagram a
// UDP endpoint sends or accepts (the practical UDP payload ceiling).
const MaxDatagram = 65507

// BatchSyscallsAvailable reports whether this build carries the batched
// syscall backend (sendmmsg/recvmmsg on linux). When false, endpoints
// work the same — a Flush still packs, and writes each datagram with
// its own syscall; a read delivers one datagram's payloads — and alloc
// guards use this to skip syscall-count assertions.
func BatchSyscallsAvailable() bool { return batchSyscalls }

// UDPConfig configures a real-socket transport.
type UDPConfig struct {
	// Book maps every group address to its UDP "host:port". All
	// entries are resolved once, in NewUDP.
	Book map[Addr]string
	// MaxPacket bounds the receive buffer and the datagrams a Flush
	// packs (default MaxDatagram).
	MaxPacket int
	// Logf, when non-nil, receives diagnostics (send errors, malformed
	// frames). The transport never logs through any other channel.
	Logf func(format string, args ...any)
	// SocketBuffer, when positive, requests SO_RCVBUF and SO_SNDBUF of
	// that many bytes on every endpoint socket (the kernel may clamp to
	// net.core.rmem_max/wmem_max). Datagrams a full receive buffer
	// cannot hold are dropped by the kernel as loss; at batch load a
	// larger buffer rides out the bursts sendmmsg produces, which is
	// cheaper than recovering the drops via retransmission.
	SocketBuffer int
}

// UDPStats counts socket activity. Retrieve a snapshot with Stats.
//
// A payload is one Send's data or one Enqueue's head‖body; a datagram
// carries one or more of them. Sent counts datagrams, Delivered,
// SendErrs and Bytes count payloads, and SendCalls/RecvCalls count
// syscalls. So, for one group, Delivered/Sent is how many payloads a
// datagram carries and SendCalls/Sent how many datagrams one sendmmsg
// moves.
type UDPStats struct {
	Sent      uint64 // datagrams written to the socket
	Delivered uint64 // payloads handed to receivers
	Malformed uint64 // datagrams dropped whole by the decoder
	SendErrs  uint64 // payloads dropped on send (unroutable, oversized, refused by the socket), as loss
	Bytes     uint64 // payload bytes in the datagrams sent
	SendCalls uint64 // write syscalls (WriteToUDP or sendmmsg)
	RecvCalls uint64 // read syscalls (ReadFromUDP or recvmmsg)
}

// UDPTransport sends datagrams over real net.UDPConn sockets using a
// static address book. It satisfies Transport: each OpenBatch binds one
// socket and starts a read-loop goroutine that decodes frames and hands
// them to the endpoint's RecvFunc.
type UDPTransport struct {
	cfg      UDPConfig
	portable bool // tests: hold endpoints on the WriteToUDP/ReadFromUDP path

	// The address book is mutable at runtime (see AddRoute/RemoveRoute,
	// driven by membership views); bookMu is read-locked on every Send.
	bookMu sync.RWMutex
	book   map[Addr]*net.UDPAddr

	mu     sync.Mutex
	eps    map[Addr]*udpEndpoint
	closed bool

	// Per-packet counters are atomics: every Send and every received
	// datagram touches them, and endpoints must not contend on t.mu.
	sent, delivered, malformed, sendErrs, bytes atomic.Uint64
	sendCalls, recvCalls                        atomic.Uint64
}

// NewUDP resolves the address book and returns a real-socket transport.
// No sockets are bound until OpenBatch.
func NewUDP(cfg UDPConfig) (*UDPTransport, error) {
	if len(cfg.Book) == 0 {
		return nil, fmt.Errorf("transport: empty address book")
	}
	if cfg.MaxPacket <= 0 {
		cfg.MaxPacket = MaxDatagram
	}
	book := make(map[Addr]*net.UDPAddr, len(cfg.Book))
	for a, s := range cfg.Book {
		ua, err := net.ResolveUDPAddr("udp", s)
		if err != nil {
			return nil, fmt.Errorf("transport: address book entry %d (%q): %w", a, s, err)
		}
		book[a] = ua
	}
	return &UDPTransport{cfg: cfg, book: book, eps: make(map[Addr]*udpEndpoint)}, nil
}

func (t *UDPTransport) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

// Open is OpenBatch with a per-payload receiver. It is kept for the
// benchmark's transport rung, which drives a bare endpoint.
func (t *UDPTransport) Open(addr Addr, recv func(from Addr, data []byte)) (Endpoint, error) {
	return t.OpenBatch(addr, func(pkts []Packet) {
		for _, p := range pkts {
			recv(p.From, p.Data)
		}
	})
}

// OpenBatch binds the socket listed for addr in the address book and
// starts its read loop, which delivers incoming payloads through recv in
// batches: those of one recvmmsg per callback on the batched backend,
// of one datagram on the portable path. A Flush packs the endpoint's
// payloads per peer into datagrams, written with sendmmsg where the
// batched backend is live, one WriteToUDP each elsewhere.
func (t *UDPTransport) OpenBatch(addr Addr, recv RecvFunc) (Endpoint, error) {
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
	ua, ok := t.book[addr]
	t.bookMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("transport: address %d not in book", addr)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("transport: bind %d at %v: %w", addr, ua, err)
	}
	if t.cfg.SocketBuffer > 0 {
		// Best-effort: the kernel clamps to rmem_max/wmem_max, and a
		// smaller buffer only costs retransmissions, not correctness.
		if err := conn.SetReadBuffer(t.cfg.SocketBuffer); err != nil {
			t.logf("transport: endpoint %d: SO_RCVBUF %d: %v", addr, t.cfg.SocketBuffer, err)
		}
		if err := conn.SetWriteBuffer(t.cfg.SocketBuffer); err != nil {
			t.logf("transport: endpoint %d: SO_SNDBUF %d: %v", addr, t.cfg.SocketBuffer, err)
		}
	}
	ep := &udpEndpoint{tr: t, addr: addr, conn: conn, recv: recv,
		cap: linkCap(ua.IP, t.cfg.MaxPacket),
		hdr: wire.NewWriter(maxFrameHeader).Byte(frameMagic).Byte(frameVersion).Uvarint(uint64(addr)).Bytes()}
	if !t.portable {
		// Best-effort: a setup failure (unsupported platform, raw-conn
		// error) leaves bio nil and the endpoint on the portable path.
		if bio, err := newBatchIO(conn, t.cfg.MaxPacket); err == nil {
			ep.bio = bio
		} else {
			t.logf("transport: endpoint %d: batched syscalls unavailable: %v", addr, err)
		}
	}
	t.eps[addr] = ep
	ep.wg.Add(1)
	if ep.bio != nil {
		go ep.readBatchLoop()
	} else {
		go ep.readLoop()
	}
	return ep, nil
}

// linkCap is the largest datagram an endpoint bound at ip packs: the
// MTU of the interface holding ip, less the IP and UDP headers (28
// bytes over IPv4, 48 over IPv6), so that a packed datagram crosses the
// link as one IP packet and losing it loses one IP packet, as losing an
// unpacked one did. A wildcard bind, or an address no interface holds,
// takes the smallest MTU among the host's up interfaces; with none
// readable, IPv6's minimum link MTU applies. The cap never exceeds
// maxPacket or MaxDatagram. It is read once, when the endpoint opens.
func linkCap(ip net.IP, maxPacket int) int {
	c := 1280 - 48
	if mtu := interfaceMTU(ip); mtu > 0 {
		c = mtu - 28
		if ip.To4() == nil {
			c = mtu - 48
		}
	}
	return min(c, maxPacket, MaxDatagram)
}

// interfaceMTU returns the MTU of the up interface holding ip, or the
// smallest MTU among the up interfaces when none does (or ip is a
// wildcard); 0 when no interface can be read.
func interfaceMTU(ip net.IP) int {
	ifs, err := net.Interfaces()
	if err != nil {
		return 0
	}
	smallest := 0
	for _, ifc := range ifs {
		if ifc.Flags&net.FlagUp == 0 || ifc.MTU <= 0 {
			continue
		}
		if addrs, err := ifc.Addrs(); err == nil && !ip.IsUnspecified() {
			for _, a := range addrs {
				if n, ok := a.(*net.IPNet); ok && n.IP.Equal(ip) {
					return ifc.MTU
				}
			}
		}
		if smallest == 0 || ifc.MTU < smallest {
			smallest = ifc.MTU
		}
	}
	return smallest
}

// AddRoute maps a group address to a "host:port" endpoint at runtime,
// resolving it immediately. Membership views use it to admit a joining
// node's socket into the address book on every running process.
func (t *UDPTransport) AddRoute(addr Addr, endpoint string) error {
	ua, err := net.ResolveUDPAddr("udp", endpoint)
	if err != nil {
		return fmt.Errorf("transport: route %d (%q): %w", addr, endpoint, err)
	}
	t.bookMu.Lock()
	t.book[addr] = ua
	t.bookMu.Unlock()
	return nil
}

// RemoveRoute retires an address from the book; subsequent sends to it
// are dropped as loss. Used when a member is evicted from the view.
func (t *UDPTransport) RemoveRoute(addr Addr) {
	t.bookMu.Lock()
	delete(t.book, addr)
	t.bookMu.Unlock()
}

// Stats returns a snapshot of socket counters.
func (t *UDPTransport) Stats() UDPStats {
	return UDPStats{
		Sent:      t.sent.Load(),
		Delivered: t.delivered.Load(),
		Malformed: t.malformed.Load(),
		SendErrs:  t.sendErrs.Load(),
		Bytes:     t.bytes.Load(),
		SendCalls: t.sendCalls.Load(),
		RecvCalls: t.recvCalls.Load(),
	}
}

// Close detaches every endpoint and rejects further Opens.
func (t *UDPTransport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	eps := make([]*udpEndpoint, 0, len(t.eps))
	for _, ep := range t.eps {
		eps = append(eps, ep)
	}
	t.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
}

type udpEndpoint struct {
	tr   *UDPTransport
	addr Addr
	conn *net.UDPConn
	recv RecvFunc
	bio  *batchIO // nil: batched syscalls unavailable or disabled
	cap  int      // largest datagram a Flush packs (linkCap)
	hdr  []byte   // the frame header every datagram starts with
	wg   sync.WaitGroup

	// The send queue: the datagrams packed since the last Flush, in the
	// order they were opened. Enqueue and Flush run on one goroutine (the
	// stack executor); mu fences them off from Send on other goroutines
	// and from Close, and is never held across a syscall — Flush swaps
	// the queue out and writes from its own slice, so Close never waits
	// behind a full send buffer. Slots past the queue's length keep their
	// buffers for reuse.
	mu    sync.Mutex
	sendq []datagram
	// flushMu serializes flushes: bio's scatter arrays must never be
	// shared by two of them.
	flushMu sync.Mutex

	frames []rxFrame // readBatchLoop's checked datagrams, reused per recvmmsg

	// closed is an atomic, not a mutex-guarded bool: the receive hot
	// path checks it once per datagram (or batch) and must not take a
	// lock per packet.
	closed atomic.Bool
}

// datagram is one packed datagram between Enqueue and Flush.
type datagram struct {
	to    Addr
	dst   *net.UDPAddr
	buf   []byte // header and segments
	n     int    // payloads packed into it
	bytes int    // their length, for UDPStats.Bytes
}

// rxFrame is one checked datagram of a recvmmsg batch.
type rxFrame struct {
	from Addr
	body []byte // the segments, aliasing the receive buffer
	segs int
}

// spareDatagrams bounds how many datagram buffers an endpoint keeps
// between flushes — as many as it keeps receive buffers for recvmmsg.
const spareDatagrams = 32

// Addr returns the endpoint's group address.
func (e *udpEndpoint) Addr() Addr { return e.addr }

// route looks to up in the address book. A payload that is unroutable,
// or too large to travel in a datagram of MaxPacket bytes, is counted
// and dropped, as network loss would drop it; RP2P's retransmission
// recovers.
func (e *udpEndpoint) route(to Addr, size int) (*net.UDPAddr, bool) {
	t := e.tr
	t.bookMu.RLock()
	dst, ok := t.book[to]
	t.bookMu.RUnlock()
	if ok && size <= t.cfg.MaxPacket-maxFrameHeader {
		return dst, true
	}
	reason := "address not in book"
	if ok {
		reason = "oversized payload"
	}
	t.sendErrs.Add(1)
	t.logf("transport: drop send %d->%d: %s", e.addr, to, reason)
	return nil, false
}

// Send writes data to to's book entry at once: it is Enqueue and Flush,
// so it also sends whatever the executor has queued so far.
func (e *udpEndpoint) Send(to Addr, data []byte) {
	e.Enqueue(to, data, nil)
	e.Flush()
}

// Enqueue copies head‖body into the datagram the next Flush sends to
// to: the last one opened for to since the previous Flush, or a new one
// when that one cannot take it without outgrowing the endpoint's cap. A
// payload larger than the cap on its own therefore travels alone, and
// the payloads to one peer keep their Enqueue order. An unroutable or
// oversized payload is dropped as loss. The body is copied too, so it
// is not retained.
func (e *udpEndpoint) Enqueue(to Addr, head, body []byte) {
	size := len(head) + len(body)
	dst, ok := e.route(to, size)
	if !ok {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		e.tr.sendErrs.Add(1)
		return
	}
	d := e.packInto(to, dst, uvarintLen(size)+size)
	d.buf = append(append(binary.AppendUvarint(d.buf, uint64(size)), head...), body...)
	d.n++
	d.bytes += size
}

// packInto returns the queued datagram to (to, dst) with room for a
// segment of seg bytes, opening a new one — on a spare buffer when one
// is large enough — when the destination's last datagram is full.
// Called with mu held.
func (e *udpEndpoint) packInto(to Addr, dst *net.UDPAddr, seg int) *datagram {
	for i := len(e.sendq) - 1; i >= 0; i-- {
		if d := &e.sendq[i]; d.to == to {
			if d.dst == dst && len(d.buf)+seg <= e.cap {
				return d
			}
			break
		}
	}
	n := len(e.sendq)
	if n < cap(e.sendq) {
		e.sendq = e.sendq[:n+1]
	} else {
		e.sendq = append(e.sendq, datagram{})
	}
	d := &e.sendq[n]
	buf := d.buf[:0]
	if need := len(e.hdr) + seg; cap(buf) < need {
		buf = make([]byte, 0, max(need, e.cap))
	}
	*d = datagram{to: to, dst: dst, buf: append(buf, e.hdr...)}
	return d
}

// Flush writes every datagram packed since the previous Flush: through
// sendmmsg, as few calls as the batch size allows, when the endpoint has
// the batched backend, one WriteToUDP each otherwise. A no-op when
// nothing is queued.
func (e *udpEndpoint) Flush() {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	e.mu.Lock()
	q := e.sendq
	e.sendq = nil
	e.mu.Unlock()
	if e.bio != nil {
		e.bio.send(e, q)
	} else {
		for i := range q {
			if e.closed.Load() {
				break
			}
			e.write(&q[i])
		}
	}
	// Hand the storage back for the next flush, keeping a bounded number
	// of buffers no larger than the cap — unless Close came first.
	for i := range q {
		if i >= spareDatagrams || cap(q[i].buf) > e.cap {
			q[i].buf = nil
		}
		q[i].dst = nil
	}
	e.mu.Lock()
	if !e.closed.Load() && e.sendq == nil {
		e.sendq = q[:0]
	}
	e.mu.Unlock()
}

// write sends one datagram with the portable syscall.
func (e *udpEndpoint) write(d *datagram) {
	e.tr.sendCalls.Add(1)
	if _, err := e.conn.WriteToUDP(d.buf, d.dst); err != nil {
		e.tr.logf("transport: send %d->%d: %v", e.addr, d.to, err)
		e.lost(d)
		return
	}
	e.sent(d)
}

// sent counts a datagram the socket took.
func (e *udpEndpoint) sent(d *datagram) {
	e.tr.sent.Add(1)
	e.tr.bytes.Add(uint64(d.bytes))
}

// lost counts the payloads of a datagram the socket refused.
func (e *udpEndpoint) lost(d *datagram) { e.tr.sendErrs.Add(uint64(d.n)) }

// uvarintLen is the encoded length of v as a uvarint.
func uvarintLen(v int) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// maxFrameHeader bounds what one payload costs in a datagram of its
// own: magic, version, a sender address below 1<<31 (a 5-byte uvarint)
// and a segment length of at most 5 bytes.
const maxFrameHeader = 12

// maxRecvFailures bounds how many consecutive transient recvmmsg errnos
// readBatchLoop rides out before concluding the errno is persistent
// (an fd-level fault, not pressure) and stopping rather than spinning.
const maxRecvFailures = 100

// readLoop reads one datagram per syscall until the endpoint closes,
// delivering its payloads as one batch.
func (e *udpEndpoint) readLoop() {
	defer e.wg.Done()
	t := e.tr
	// One byte beyond MaxPacket: ReadFromUDP silently cuts a datagram
	// at the buffer size, so a full read marks an over-limit datagram
	// (e.g. a peer configured with a larger MaxPacket) that must be
	// dropped rather than delivered as a truncated-but-decodable frame.
	buf := make([]byte, t.cfg.MaxPacket+1)
	for {
		t.recvCalls.Add(1)
		n, _, err := e.conn.ReadFromUDP(buf)
		if err != nil {
			// Socket closed (endpoint shutdown) or unrecoverable.
			return
		}
		if f, ok := e.check(buf[:n], n == len(buf)); ok {
			e.deliver([]rxFrame{f})
		}
	}
}

// readBatchLoop drains the socket with recvmmsg until the endpoint
// closes, delivering the payloads of each syscall's worth of datagrams
// as one batch.
func (e *udpEndpoint) readBatchLoop() {
	defer e.wg.Done()
	t := e.tr
	failures := 0 // consecutive transient recvmmsg errnos
	for {
		t.recvCalls.Add(1)
		n, errno, err := e.bio.recvBatch()
		if err != nil {
			// RawConn dead: socket closed (endpoint shutdown).
			return
		}
		if errno != 0 {
			// Transient kernel failure (e.g. ENOMEM under memory
			// pressure; EINTR is already retried inside recvBatch): keep
			// receiving — returning here would permanently deafen this
			// endpoint while the rest of the stack runs on. A persistent
			// errno would spin, so give up after a bounded run of
			// consecutive failures with no successful read in between.
			t.logf("transport: endpoint %d: recvmmsg: %v", e.addr, errno)
			if failures++; failures >= maxRecvFailures {
				t.logf("transport: endpoint %d: %d consecutive receive failures, stopping read loop", e.addr, failures)
				return
			}
			continue
		}
		failures = 0
		batchRecvsCounter.Add(1)
		frames := e.frames[:0]
		for i := 0; i < n; i++ {
			if f, ok := e.check(e.bio.recvMsg(i)); ok {
				frames = append(frames, f)
			}
		}
		e.frames = frames
		e.deliver(frames)
	}
}

// check decodes one received datagram. One that is over the size limit
// (cut by the kernel, or filling the sentinel byte past MaxPacket) or
// malformed is counted once, whatever it held, and dropped.
func (e *udpEndpoint) check(raw []byte, overLimit bool) (rxFrame, bool) {
	t := e.tr
	if overLimit {
		t.malformed.Add(1)
		wire.RejectFrame()
		t.logf("transport: endpoint %d: dropped over-limit datagram (>%d bytes)", e.addr, t.cfg.MaxPacket)
		return rxFrame{}, false
	}
	from, body, segs, ok := decodeFrame(raw)
	if !ok {
		t.malformed.Add(1)
		wire.RejectFrame()
		t.logf("transport: endpoint %d: dropped malformed %d-byte datagram", e.addr, len(raw))
		return rxFrame{}, false
	}
	t.delivered.Add(uint64(segs))
	return rxFrame{from: from, body: body, segs: segs}, true
}

// deliver hands the payloads of checked datagrams to the receiver as
// one batch, unless the endpoint has closed. The receiver owns the
// batch, so the payloads are copied out of the receive buffers, which
// are reused, into one arena: two allocations per batch, not two per
// payload.
func (e *udpEndpoint) deliver(frames []rxFrame) {
	payloads, size := 0, 0
	for _, f := range frames {
		payloads += f.segs
		size += len(f.body)
	}
	if payloads == 0 || e.closed.Load() {
		return
	}
	pkts := make([]Packet, 0, payloads)
	arena := make([]byte, 0, size)
	for _, f := range frames {
		start := len(arena)
		arena = append(arena, f.body...)
		for b := arena[start:]; len(b) > 0; {
			var seg []byte
			seg, b, _ = nextSegment(b)
			pkts = append(pkts, Packet{From: f.from, Data: seg})
		}
	}
	e.recv(pkts)
}

// Close shuts the socket down and waits for the read loop to exit.
// Datagrams no Flush has sent yet are discarded, as loss.
func (e *udpEndpoint) Close() {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	e.mu.Lock()
	e.sendq = nil
	e.mu.Unlock()
	e.conn.Close()
	e.wg.Wait()
	t := e.tr
	t.mu.Lock()
	if t.eps[e.addr] == e {
		delete(t.eps, e.addr)
	}
	t.mu.Unlock()
}

// decodeFrame checks one datagram and returns its sender and its body:
// segs segments that tile it exactly. ok is false for a datagram that is
// truncated, carries the wrong magic or version, has a sender address
// that overflows, holds no segment, or whose segments do not end where
// it ends — a datagram is delivered whole or not at all.
func decodeFrame(b []byte) (from Addr, body []byte, segs int, ok bool) {
	r := wire.NewReader(b)
	r.Expect(frameMagic, "transport magic")
	r.Expect(frameVersion, "transport version")
	f := r.Uvarint()
	body = r.Rest()
	if r.Err() != nil || f >= 1<<31 || len(body) == 0 {
		return 0, nil, 0, false
	}
	for rest := body; len(rest) > 0; segs++ {
		if _, rest, ok = nextSegment(rest); !ok {
			return 0, nil, 0, false
		}
	}
	return Addr(f), body, segs, true
}

// nextSegment splits the first segment off b, reporting false when its
// length is unreadable or reaches past the end of b. The segment's
// capacity ends where it does, so a receiver appending to one payload
// cannot overwrite the next.
func nextSegment(b []byte) (seg, rest []byte, ok bool) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k) {
		return nil, nil, false
	}
	end := k + int(n)
	return b[k:end:end], b[end:], true
}
