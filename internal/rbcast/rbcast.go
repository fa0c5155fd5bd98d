// Package rbcast implements reliable broadcast over the RP2P service:
// the initiator sends to everybody, and every stack relays a message on
// first receipt before delivering it. With reliable channels this gives
// the classic guarantees — validity (a correct sender's message is
// delivered), agreement (if any correct stack delivers m, every correct
// stack does, even if the sender crashed mid-broadcast) and integrity
// (no duplicates, no invention).
//
// Like RP2P, deliveries are demultiplexed by named channels with
// buffering of unclaimed channels, so messages addressed to a protocol
// version that does not exist yet wait for its module.
//
// # Wire format and coalescing
//
// One RP2P datagram on the "rb" channel carries a frame of one or more
// records (uvarint origin, uvarint seq, length-prefixed channel,
// length-prefixed data). Outgoing traffic — initial sends and relays
// alike — accumulates per destination during one executor pass and is
// flushed as one frame per destination at the end of the pass (see
// kernel.Stack.RegisterFlusher), so a burst of broadcasts costs one
// datagram per peer instead of one per message per peer, and a relayed
// record is copied straight from the incoming frame without
// re-encoding.
package rbcast

import (
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/rp2p"
	"repro/internal/wire"
)

// Service is the reliable-broadcast service.
const Service kernel.ServiceID = "rbcast"

// Protocol is the protocol name registered for this module.
const Protocol = "rbcast"

// rp2pChannel carries all rbcast traffic on the RP2P service.
const rp2pChannel = "rb"

// maxFrameBytes caps one coalesced frame so the resulting RP2P packet
// (frame + rp2p/udp/transport headers) stays under the UDP datagram
// ceiling (transport.MaxDatagram); a frame that would grow past the cap
// is flushed and a fresh one started. A single record larger than the
// cap still travels alone — coalescing never makes a datagram bigger
// than that record needs by itself.
const maxFrameBytes = 48 << 10

// dropCounter counts deliveries discarded because an unclaimed
// channel's buffer was full (see Config.BufferLimit). Exposed through
// the process-wide metrics registry instead of a per-message log line.
var dropCounter = metrics.NewCounter("rbcast.buffer_drops")

// Adaptation signals: received records and the relays they trigger.
// Their windowed ratio is the relay amplification (fan-out) the
// adaptation layer samples — it grows with the group size and with
// redundant relay traffic under churn.
var (
	recvCounter  = metrics.NewCounter("rbcast.records_received")
	relayCounter = metrics.NewCounter("rbcast.records_relayed")
)

// Broadcast requests a reliable broadcast to the whole group,
// including the sender. Data is copied into the outgoing frames and
// handed through to the local channel handler, which may retain it, so
// the caller must never mutate it afterwards, and must not pool it.
type Broadcast struct {
	Channel string
	Data    []byte
}

// Deliver is handed to the channel's handler on every stack.
type Deliver struct {
	Origin kernel.Addr
	Data   []byte
}

// Listen registers the handler for a channel, flushing buffered
// messages. The handler runs on the stack's executor.
type Listen struct {
	Channel string
	Handler func(Deliver)
}

// Unlisten removes the channel's handler; subsequent messages buffer.
type Unlisten struct {
	Channel string
}

// Config tunes the module.
type Config struct {
	// BufferLimit bounds per-channel buffering of unclaimed messages.
	BufferLimit int
}

func (c Config) withDefaults() Config {
	if c.BufferLimit <= 0 {
		c.BufferLimit = 16384
	}
	return c
}

// seenSet tracks which sequence numbers of one origin were received,
// compacting the contiguous prefix so memory stays bounded under FIFO
// arrival.
//
// The first record observed from an origin sets a baseline: a receiver
// that joined the group mid-stream (view-driven membership) first hears
// an origin at some seq far above 1, and without the baseline the
// sparse set would wait forever for a prefix that was never addressed
// to it. Records below the baseline — in-flight at join time, arriving
// late via relays — are still accepted exactly once through a small
// side set that only ever holds seqs actually received.
type seenSet struct {
	maxContig uint64
	sparse    map[uint64]bool
	based     bool
	base      uint64          // adopted baseline: seqs <= base tracked in below
	below     map[uint64]bool // below-baseline seqs received individually
}

func (s *seenSet) add(seq uint64) bool {
	if !s.based {
		s.based = true
		if seq > 1 {
			s.base = seq - 1
			s.maxContig = s.base
		}
	}
	if seq <= s.base {
		if s.below[seq] {
			return false
		}
		if s.below == nil {
			s.below = make(map[uint64]bool)
		}
		s.below[seq] = true
		return true
	}
	if seq <= s.maxContig || s.sparse[seq] {
		return false
	}
	s.sparse[seq] = true
	for s.sparse[s.maxContig+1] {
		delete(s.sparse, s.maxContig+1)
		s.maxContig++
	}
	return true
}

// Module implements reliable broadcast.
type Module struct {
	kernel.Base
	cfg        Config
	seq        uint64
	seen       map[kernel.Addr]*seenSet
	handlers   map[string]func(Deliver)
	unclaimed  map[string][]Deliver
	drops      uint64
	dropLogged map[string]bool

	// Outgoing frame accumulation, one pooled writer per destination,
	// flushed at the end of every executor pass.
	outq       map[kernel.Addr]*wire.Writer
	outOrder   []kernel.Addr
	unregister func()
}

// Factory returns the module factory.
func Factory(cfg Config) kernel.Factory {
	cfg = cfg.withDefaults()
	return kernel.Factory{
		Protocol: Protocol,
		Provides: []kernel.ServiceID{Service},
		Requires: []kernel.ServiceID{rp2p.Service},
		New: func(st *kernel.Stack) kernel.Module {
			return &Module{
				Base:       kernel.NewBase(st, Protocol),
				cfg:        cfg,
				seen:       make(map[kernel.Addr]*seenSet),
				handlers:   make(map[string]func(Deliver)),
				unclaimed:  make(map[string][]Deliver),
				dropLogged: make(map[string]bool),
				outq:       make(map[kernel.Addr]*wire.Writer),
			}
		},
	}
}

// Start hooks into the RP2P channel and registers the frame flusher.
func (m *Module) Start() {
	m.Stk.Call(rp2p.Service, rp2p.Listen{Channel: rp2pChannel, Handler: m.onRecv})
	m.unregister = m.Stk.RegisterFlusher(m.flushFrames)
}

// Stop detaches from RP2P and releases pending frame buffers.
func (m *Module) Stop() {
	if m.unregister != nil {
		m.unregister()
	}
	// Free in enqueue order, not map order: the pool's free list is
	// LIFO, so the release order decides which buffer the next GetWriter
	// returns and must be run-to-run deterministic (dpu-lint maporder).
	for _, p := range m.outOrder {
		if f := m.outq[p]; f != nil {
			f.Free()
			delete(m.outq, p)
		}
	}
	m.outOrder = m.outOrder[:0]
	m.Stk.Call(rp2p.Service, rp2p.Unlisten{Channel: rp2pChannel})
}

// HandleRequest processes Broadcast, Listen and Unlisten.
func (m *Module) HandleRequest(_ kernel.ServiceID, req kernel.Request) {
	switch r := req.(type) {
	case Broadcast:
		m.broadcast(r)
	case Listen:
		m.handlers[r.Channel] = r.Handler
		delete(m.dropLogged, r.Channel) // a fresh consumer re-arms the warning
		if buf := m.unclaimed[r.Channel]; len(buf) > 0 {
			delete(m.unclaimed, r.Channel)
			for _, d := range buf {
				r.Handler(d)
			}
		}
	case Unlisten:
		delete(m.handlers, r.Channel)
	}
}

func (m *Module) broadcast(b Broadcast) {
	m.seq++
	origin := m.Stk.Addr()
	// Encode the record header once into a pooled scratch buffer; header
	// and data then go to every destination.
	head := wire.GetWriter(len(b.Channel) + 32)
	head.Uvarint(uint64(origin)).Uvarint(m.seq).String(b.Channel).Uvarint(uint64(len(b.Data)))
	m.markSeen(origin, m.seq)
	for _, p := range m.Stk.Others() {
		m.enqueueRecord(p, head.Bytes(), b.Data)
	}
	head.Free()
	m.deliver(b.Channel, Deliver{Origin: origin, Data: b.Data})
}

// enqueueRecord queues one record — head is its encoded header up to
// and including the data length, data the bytes that follow — for the
// destination, by appending it to the destination's pending frame. A
// frame that would exceed the size cap is flushed BEFORE the append, so
// coalescing never builds a datagram larger than one the biggest single
// record would need on its own (an oversized record still travels
// alone, exactly as it would without coalescing).
func (m *Module) enqueueRecord(p kernel.Addr, head, data []byte) {
	n := len(head) + len(data)
	f := m.outq[p]
	if f == nil {
		f = wire.GetWriter(n + 256)
		//dpulint:ignore poolfree frame parked in m.outq between executor passes; flushFrames and Stop guarantee the Free
		m.outq[p] = f
		m.outOrder = append(m.outOrder, p)
	}
	if f.Len() > 0 && f.Len()+n > maxFrameBytes {
		if m.sendFrame(p, f) {
			f.Reset()
		} else {
			f = wire.GetWriter(n + 256) // ownership passed to a parked call
			m.outq[p] = f
		}
	}
	f.Raw(head).Raw(data)
}

// sendFrame hands one frame to RP2P. It reports whether the caller
// still owns the writer: with RP2P bound (the normal case) the frame is
// copied synchronously and the writer is reusable; with RP2P unbound
// the request parks retaining the buffer, so ownership transfers and
// the writer must be neither reused nor freed.
func (m *Module) sendFrame(p kernel.Addr, f *wire.Writer) bool {
	bound := m.Stk.Provider(rp2p.Service) != nil
	m.Stk.CallSync(rp2p.Service, rp2p.Send{To: p, Channel: rp2pChannel, Data: f.Bytes()})
	return bound
}

// flushFrames runs as a stack flusher after every drained event batch:
// each destination's accumulated records go out as one RP2P datagram.
func (m *Module) flushFrames() {
	if len(m.outOrder) == 0 {
		return
	}
	for _, p := range m.outOrder {
		f := m.outq[p]
		if f == nil {
			continue
		}
		if f.Len() == 0 || m.sendFrame(p, f) {
			f.Free()
		}
		delete(m.outq, p)
	}
	m.outOrder = m.outOrder[:0]
}

func (m *Module) markSeen(origin kernel.Addr, seq uint64) bool {
	ss, ok := m.seen[origin]
	if !ok {
		ss = &seenSet{sparse: make(map[uint64]bool)}
		m.seen[origin] = ss
	}
	return ss.add(seq)
}

func (m *Module) onRecv(rv rp2p.Recv) {
	r := wire.NewReader(rv.Data)
	for r.Err() == nil && r.Remaining() > 0 {
		start := r.Pos()
		origin := kernel.Addr(r.Uvarint())
		seq := r.Uvarint()
		channel := r.String()
		data := r.BytesField()
		if r.Err() != nil {
			return // truncated frame: drop the unreadable tail
		}
		head := rv.Data[start : r.Pos()-len(data)]
		if !m.markSeen(origin, seq) {
			continue // already relayed and delivered
		}
		recvCounter.Add(1)
		// Relay before delivering: agreement despite sender crash. The
		// record goes into the relay frames verbatim — no re-encoding.
		for _, p := range m.Stk.Others() {
			if p == origin || p == rv.From {
				continue
			}
			m.enqueueRecord(p, head, data)
			relayCounter.Add(1)
		}
		m.deliver(channel, Deliver{Origin: origin, Data: data})
	}
}

func (m *Module) deliver(channel string, d Deliver) {
	if h, ok := m.handlers[channel]; ok {
		h(d)
		return
	}
	buf := m.unclaimed[channel]
	if len(buf) >= m.cfg.BufferLimit {
		m.drops++
		dropCounter.Add(1)
		if !m.dropLogged[channel] {
			m.dropLogged[channel] = true
			m.Stk.Logf("rbcast: channel %q buffer full, dropping (suppressing further logs; see metrics counter %q)",
				channel, dropCounter.Name())
		}
		return
	}
	// A buffered record would otherwise alias the whole incoming
	// coalesced frame (up to maxFrameBytes), pinning it for as long as
	// the channel stays unclaimed; copy so buffering retains only the
	// record itself.
	d.Data = append([]byte(nil), d.Data...)
	m.unclaimed[channel] = append(buf, d)
}
