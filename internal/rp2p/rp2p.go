// Package rp2p implements the RP2P module of the paper's stack
// (Figure 4): reliable, FIFO point-to-point communication between
// stacks, built on the unreliable UDP service with sequence numbers,
// cumulative acknowledgements, retransmission with exponential backoff
// and a sliding send window.
//
// An ack echoes the transmit stamp of the last data packet the peer
// received. When the first packet the peer still lacks was last sent
// before that stamp, a later packet overtook it, and it is resent at
// once instead of one retransmission timeout later: the time-based loss
// rule of RACK (RFC 8985), one packet per ack, with the timer as the
// backstop. A packet merely reordered in flight costs one duplicate,
// which the receiver discards.
//
// Deliveries are demultiplexed by named channels. A channel with no
// registered handler buffers its messages until a handler registers:
// this realises the paper's rule that "if Pj is not currently in stack
// j, the invocation made by Q is completed when Pj is added to stack j"
// — during a dynamic protocol update, messages addressed to the next
// protocol version wait for that module's creation.
//
// On the wire, all RP2P traffic shares the socket under the
// udp.ChanRP2P channel tag (see internal/udp's registry); the named
// channels here ("rb", "cons", epoch-scoped abcast channels, ...) are
// a second, string-keyed multiplexing level inside that tag.
package rp2p

import (
	"encoding/binary"
	"slices"
	"sort"
	"time"

	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/udp"
	"repro/internal/wire"
)

// Adaptation signals exported through the process-wide metrics
// registry: every data-packet transmission and retransmission is
// counted, and the smoothed ack round-trip time is published as a
// gauge. The ratio of the two counters over a sampling window is the
// loss estimate internal/policy's LossSensitive policy switches on.
var (
	sentCounter    = metrics.NewCounter("rp2p.packets_sent")
	retransCounter = metrics.NewCounter("rp2p.retransmits")
	ackRTTGauge    = metrics.NewGauge("rp2p.ack_rtt_us")
)

// dropCounter counts deliveries discarded because an unclaimed channel's
// buffer was full (see Config.BufferLimit).
var dropCounter = metrics.NewCounter("rp2p.buffer_drops")

// Service is the reliable point-to-point service.
const Service kernel.ServiceID = "net/rp2p"

// Protocol is the protocol name registered for this module.
const Protocol = "net/rp2p"

// Send requests a reliable FIFO transmission to one stack.
//
// For a remote destination, Data is copied into the packet buffer while
// the request is handled, so a sender issuing the request with
// Stack.CallSync may reuse or pool the buffer as soon as the call
// returns. A self-addressed Send is delivered by handing Data straight
// to the channel handler, which may retain it — do not pool buffers
// sent to self.
//
// Body, when non-empty, is the rest of the message: the receiver's
// Recv.Data is Data followed by Body. Its ownership is the opposite of
// Data's — it is never copied, the packet keeps the slice until the
// peer acknowledges it and every (re)transmission hands it on to
// udp.Send.Body, where a stream transport reads it from its own
// goroutine. Body must therefore be immutable from the call on, for as
// long as anyone holds it, and must not be a pooled buffer (dpu-lint's
// poolfree analyzer flags wire.Writer bytes passed as a Body). The two
// cold cases — a self-addressed Send, and a Send made while the UDP
// service is unbound, which parks the request — join Data and Body into
// one fresh buffer instead.
type Send struct {
	To      kernel.Addr
	Channel string
	Data    []byte
	Body    []byte
}

// Recv is handed to the channel's registered handler for every
// delivered message, in FIFO order per (sender, receiver) pair.
type Recv struct {
	From    kernel.Addr
	Channel string
	Data    []byte
}

// Listen registers the handler for a channel and flushes any messages
// buffered while the channel had no handler. The handler runs on the
// stack's executor.
type Listen struct {
	Channel string
	Handler func(Recv)
}

// Unlisten removes the channel's handler; subsequent messages buffer.
type Unlisten struct {
	Channel string
}

// StatsReq asks for a snapshot of module counters, delivered through
// Reply on the executor.
type StatsReq struct {
	Reply func(Stats)
}

// Stats counts module activity.
type Stats struct {
	Sent          uint64
	Delivered     uint64
	Retransmits   uint64
	DupsDiscarded uint64
	Buffered      uint64 // currently buffered on unclaimed channels
	BufferDrops   uint64
}

// Config tunes the reliability machinery.
type Config struct {
	// RTO is the initial (and minimum) retransmission timeout. The
	// effective timeout adapts to the measured round-trip time
	// (RFC 6298-style SRTT/RTTVAR over echo-timestamp samples), so a
	// congested path does not collapse into a retransmission storm.
	RTO time.Duration
	// MaxRTO caps exponential backoff and RTT adaptation.
	MaxRTO time.Duration
	// Window is the maximum number of unacknowledged packets per peer.
	Window int
	// RetransmitBurst caps how many packets one timer expiry resends
	// (oldest first); the rest wait for the next expiry or an ack.
	RetransmitBurst int
	// BufferLimit bounds per-channel buffering of unclaimed messages.
	BufferLimit int
}

// DefaultConfig returns production defaults scaled for the simulated
// LAN profiles used in the experiments.
func DefaultConfig() Config {
	return Config{
		RTO:             20 * time.Millisecond,
		MaxRTO:          500 * time.Millisecond,
		Window:          128,
		RetransmitBurst: 8,
		BufferLimit:     16384,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.RTO <= 0 {
		c.RTO = d.RTO
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = d.MaxRTO
	}
	if c.Window <= 0 {
		c.Window = d.Window
	}
	if c.RetransmitBurst <= 0 {
		c.RetransmitBurst = d.RetransmitBurst
	}
	if c.BufferLimit <= 0 {
		c.BufferLimit = d.BufferLimit
	}
	return c
}

const (
	pktData byte = 0
	pktAck  byte = 1
)

// outPkt is one in-flight packet. The wire encoding carries a transmit
// timestamp that the receiver echoes in its ack (like TCP timestamps,
// RFC 7323): RTT samples stay clean even when cumulative acks are held
// back by a head-of-line loss, the case where sampling "time until the
// ack covered it" would wildly inflate the estimate.
//
// The encoding lives in a pooled wire.Writer (with wire.FrameOverhead
// bytes of leading headroom for the UDP frame header, so transmissions
// cross the framing layer without a copy) that is released back to the
// pool once the packet is acknowledged. A Send.Body is not part of it:
// the packet on the wire is the writer's bytes followed by body, which
// stays the sender's slice, and only the writer's bytes are re-stamped
// on retransmission.
type outPkt struct {
	seq    uint64
	w      *wire.Writer // encoded packet; timestamp field starts at tsOff
	tsOff  int
	body   []byte // Send.Body, by reference until acked
	sentAt uint64 // timestamp of the last transmission
}

type peer struct {
	addr kernel.Addr

	// Sender side.
	nextSeq uint64 // next sequence number to assign (starts at 1)
	sendQ   []*outPkt
	unacked map[uint64]*outPkt
	rto     time.Duration // current timeout incl. backoff
	srtt    time.Duration // smoothed RTT (0 until first sample)
	rttvar  time.Duration
	// The retransmission timer, made with the peer and re-armed in place;
	// a firing whose task a stop or re-arm overtook is dropped by the
	// kernel, so retransmit runs only for the arm in force.
	rtimer  *kernel.Timer
	rtArmed bool // armed, or fired and retransmit not run yet

	// Receiver side.
	expected uint64 // next in-order sequence wanted (starts at 1)
	oob      map[uint64]Recv
	echoTS   uint64 // transmit timestamp of the last data packet, echoed in acks
	ackDue   bool   // a cumulative ack is owed at the end of this executor pass
}

// sampleRTT folds one round-trip measurement into the adaptive timeout
// (RFC 6298 coefficients).
func (p *peer) sampleRTT(s time.Duration, minRTO, maxRTO time.Duration) {
	if p.srtt == 0 {
		p.srtt = s
		p.rttvar = s / 2
	} else {
		diff := p.srtt - s
		if diff < 0 {
			diff = -diff
		}
		p.rttvar = (3*p.rttvar + diff) / 4
		p.srtt = (7*p.srtt + s) / 8
	}
	rto := p.srtt + 4*p.rttvar
	if rto < minRTO {
		rto = minRTO
	}
	if rto > maxRTO {
		rto = maxRTO
	}
	p.rto = rto
}

// Module implements the RP2P module.
type Module struct {
	kernel.Base
	cfg        Config
	peers      map[kernel.Addr]*peer
	handlers   map[string]func(Recv)
	unclaimed  map[string][]Recv
	stats      Stats
	ackQ       []*peer // peers owed a cumulative ack this executor pass
	unregister func()
}

// Factory returns the module factory.
func Factory(cfg Config) kernel.Factory {
	cfg = cfg.withDefaults()
	return kernel.Factory{
		Protocol: Protocol,
		Provides: []kernel.ServiceID{Service},
		Requires: []kernel.ServiceID{udp.Service},
		New: func(st *kernel.Stack) kernel.Module {
			return &Module{
				Base:      kernel.NewBase(st, Protocol),
				cfg:       cfg,
				peers:     make(map[kernel.Addr]*peer),
				handlers:  make(map[string]func(Recv)),
				unclaimed: make(map[string][]Recv),
			}
		},
	}
}

// Start subscribes to the UDP service and registers the end-of-pass
// ack flusher: data packets arriving in one executor batch are answered
// with one cumulative ack per peer instead of one ack per packet. It
// also subscribes to membership views so per-peer reliability state is
// garbage-collected when a member is evicted.
func (m *Module) Start() {
	m.Stk.Subscribe(udp.Service, m)
	m.Stk.Subscribe(kernel.PeerService, m)
	m.unregister = m.Stk.RegisterFlusher(m.flushAcks)
}

// Stop cancels retransmission timers and releases in-flight packet
// buffers back to the pool.
func (m *Module) Stop() {
	// Tear peers down in address order: releasing pooled buffers in map
	// order would leave the pool's LIFO free list in a random order and
	// leak nondeterminism into every later GetWriter (dpu-lint maporder).
	addrs := make([]int, 0, len(m.peers))
	for a := range m.peers {
		addrs = append(addrs, int(a))
	}
	sort.Ints(addrs)
	for _, a := range addrs {
		p := m.peers[kernel.Addr(a)]
		m.stopRetransmit(p)
		freeUnacked(p)
		for _, pkt := range p.sendQ {
			pkt.w.Free()
		}
		p.sendQ = nil
	}
	if m.unregister != nil {
		m.unregister()
	}
	m.Stk.Unsubscribe(udp.Service, m)
	m.Stk.Unsubscribe(kernel.PeerService, m)
}

// dropPeer releases all reliability state held for a peer that left the
// view: the retransmission timer (which would otherwise keep firing at
// MaxRTO forever, the packets unackable), pooled in-flight buffers and
// the backlog. Out-of-order receive buffers go with it; a straggler
// datagram from the gone peer would lazily recreate clean state, which
// the next view change collects again.
func (m *Module) dropPeer(a kernel.Addr) {
	p, ok := m.peers[a]
	if !ok {
		return
	}
	m.stopRetransmit(p)
	freeUnacked(p)
	for _, pkt := range p.sendQ {
		pkt.w.Free()
	}
	p.sendQ = nil
	p.oob = nil
	delete(m.peers, a)
}

// freeUnacked releases a peer's in-flight packet buffers in sequence
// order, so the pool's LIFO free list ends up in the same order every
// run regardless of map iteration order.
func freeUnacked(p *peer) {
	seqs := make([]uint64, 0, len(p.unacked))
	for s := range p.unacked {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, s := range seqs {
		p.unacked[s].w.Free()
	}
	p.unacked = nil
}

func (m *Module) peerFor(a kernel.Addr) *peer {
	p, ok := m.peers[a]
	if !ok {
		p = &peer{addr: a, nextSeq: 1, expected: 1,
			unacked: make(map[uint64]*outPkt), oob: make(map[uint64]Recv), rto: m.cfg.RTO}
		p.rtimer = m.Stk.NewTimer(func() { m.retransmit(p) })
		m.peers[a] = p
	}
	return p
}

// HandleRequest processes Send, Listen, Unlisten and StatsReq.
func (m *Module) HandleRequest(_ kernel.ServiceID, req kernel.Request) {
	switch r := req.(type) {
	case Send:
		m.send(r)
	case Listen:
		m.handlers[r.Channel] = r.Handler
		if buf := m.unclaimed[r.Channel]; len(buf) > 0 {
			delete(m.unclaimed, r.Channel)
			m.stats.Buffered -= uint64(len(buf))
			for _, rv := range buf {
				r.Handler(rv)
			}
		}
	case Unlisten:
		delete(m.handlers, r.Channel)
	case StatsReq:
		if r.Reply != nil {
			r.Reply(m.stats)
		}
	}
}

func (m *Module) send(s Send) {
	m.stats.Sent++
	if len(s.Body) > 0 && (s.To == m.Stk.Addr() || m.Stk.Provider(udp.Service) == nil) {
		s.Data, s.Body = slices.Concat(s.Data, s.Body), nil
	}
	if s.To == m.Stk.Addr() {
		// Local shortcut: the executor's FIFO already gives order.
		m.deliver(Recv{From: s.To, Channel: s.Channel, Data: s.Data})
		return
	}
	p := m.peerFor(s.To)
	w := wire.GetWriter(len(s.Data) + len(s.Channel) + 24 + wire.FrameOverhead)
	w.Pad(wire.FrameOverhead) // headroom for the UDP frame header (udp.Send{Headroom: true})
	w.Byte(pktData).Uvarint(p.nextSeq)
	tsOff := w.Len()
	w.Uint64(0) // transmit timestamp, stamped per transmission
	w.String(s.Channel).Raw(s.Data)
	//dpulint:ignore poolfree buffer parked in the retransmission window; onAck, dropPeer and Stop guarantee the Free
	pkt := &outPkt{seq: p.nextSeq, w: w, tsOff: tsOff, body: s.Body}
	p.nextSeq++
	if len(p.unacked) < m.cfg.Window {
		p.unacked[pkt.seq] = pkt
		m.transmit(p, pkt)
		m.armRetransmit(p)
	} else {
		p.sendQ = append(p.sendQ, pkt)
	}
}

func (m *Module) transmit(p *peer, pkt *outPkt) {
	sentCounter.Add(1)
	encoded := pkt.w.Bytes()
	pkt.sentAt = uint64(m.Stk.Now().UnixNano())
	binary.BigEndian.PutUint64(encoded[pkt.tsOff:], pkt.sentAt)
	// Synchronous dispatch into the UDP module: no queue round-trip, and
	// the headroom byte lets the frame go out without a copy.
	m.Stk.CallSync(udp.Service, udp.Send{To: p.addr, Chan: udp.ChanRP2P, Data: encoded, Body: pkt.body, Headroom: true})
}

func (m *Module) armRetransmit(p *peer) {
	if p.rtArmed {
		return
	}
	p.rtArmed = true
	p.rtimer.Reset(p.rto)
}

func (m *Module) stopRetransmit(p *peer) {
	if p.rtArmed {
		p.rtArmed = false
		p.rtimer.Stop()
	}
}

func (m *Module) retransmit(p *peer) {
	p.rtArmed = false
	if len(p.unacked) == 0 {
		return
	}
	seqs := make([]uint64, 0, len(p.unacked))
	for s := range p.unacked {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	// Resend only the oldest few: a full-window resend under congestion
	// is exactly the retransmission storm that melts a loaded path.
	if len(seqs) > m.cfg.RetransmitBurst {
		seqs = seqs[:m.cfg.RetransmitBurst]
	}
	for _, s := range seqs {
		m.resend(p, p.unacked[s])
	}
	p.rto = min(p.rto*2, m.cfg.MaxRTO)
	m.armRetransmit(p)
}

func (m *Module) resend(p *peer, pkt *outPkt) {
	m.transmit(p, pkt)
	m.stats.Retransmits++
	retransCounter.Add(1)
}

// HandleIndication processes UDP receptions tagged for RP2P and
// membership views (evicted members' state is released).
func (m *Module) HandleIndication(svc kernel.ServiceID, ind kernel.Indication) {
	if svc == kernel.PeerService {
		if pc, ok := ind.(kernel.PeersChanged); ok {
			for _, p := range pc.Removed {
				m.dropPeer(p)
			}
		}
		return
	}
	rv, ok := ind.(udp.Recv)
	if !ok || rv.Chan != udp.ChanRP2P {
		return
	}
	r := wire.NewReader(rv.Data)
	switch r.Byte() {
	case pktData:
		seq := r.Uvarint()
		ts := r.Uint64()
		channel := r.String()
		data := r.Rest()
		if r.Err() != nil {
			return
		}
		m.onData(rv.From, seq, ts, channel, data)
	case pktAck:
		want := r.Uvarint()
		echoTS := r.Uint64()
		if r.Err() != nil {
			return
		}
		m.onAck(rv.From, want, echoTS)
	}
}

func (m *Module) onData(from kernel.Addr, seq uint64, ts uint64, channel string, data []byte) {
	p := m.peerFor(from)
	p.echoTS = ts
	switch {
	case seq < p.expected:
		m.stats.DupsDiscarded++
	case seq == p.expected:
		m.deliver(Recv{From: from, Channel: channel, Data: data})
		p.expected++
		for {
			next, ok := p.oob[p.expected]
			if !ok {
				break
			}
			delete(p.oob, p.expected)
			m.deliver(next)
			p.expected++
		}
	default: // future packet: buffer out-of-order
		if _, dup := p.oob[seq]; !dup {
			// The sender's window bounds how far ahead seq can be; cap
			// defensively anyway.
			if len(p.oob) < 4*m.cfg.Window {
				p.oob[seq] = Recv{From: from, Channel: channel, Data: data}
			}
		} else {
			m.stats.DupsDiscarded++
		}
	}
	m.sendAck(p)
}

// sendAck schedules a cumulative ack to p at the end of the current
// executor pass; n data packets drained in one batch cost one ack.
func (m *Module) sendAck(p *peer) {
	if p.ackDue {
		return
	}
	p.ackDue = true
	m.ackQ = append(m.ackQ, p)
}

// flushAcks runs as a stack flusher after every drained event batch.
func (m *Module) flushAcks() {
	if len(m.ackQ) == 0 {
		return
	}
	for i, p := range m.ackQ {
		m.ackQ[i] = nil
		p.ackDue = false
		w := wire.GetWriter(20 + wire.FrameOverhead)
		w.Pad(wire.FrameOverhead) // headroom for the UDP frame header
		w.Byte(pktAck).Uvarint(p.expected).Uint64(p.echoTS)
		m.Stk.CallSync(udp.Service, udp.Send{To: p.addr, Chan: udp.ChanRP2P, Data: w.Bytes(), Headroom: true})
		w.Free()
	}
	m.ackQ = m.ackQ[:0]
}

func (m *Module) onAck(from kernel.Addr, want uint64, echoTS uint64) {
	p := m.peerFor(from)
	// Every ack carries an RTT measurement for the transmission that
	// triggered it, valid even for retransmissions and held-back
	// cumulative acks.
	if echoTS > 0 {
		if sample := m.Stk.Now().Sub(time.Unix(0, int64(echoTS))); sample > 0 && sample < 10*m.cfg.MaxRTO {
			p.sampleRTT(sample, m.cfg.RTO, m.cfg.MaxRTO)
			ackRTTGauge.Observe(p.srtt.Microseconds())
		}
	}
	progressed := false
	// Unacked sequence numbers form a contiguous range (they are
	// assigned consecutively and only removed as a prefix by cumulative
	// acks), so walking downward from want-1 until the first miss visits
	// exactly the acked packets — in deterministic order and without the
	// allocation a sorted-keys pass would need on this hot path.
	for s := want - 1; ; s-- {
		pkt, ok := p.unacked[s]
		if !ok {
			break
		}
		delete(p.unacked, s)
		pkt.w.Free() // retransmission impossible; recycle the buffer
		progressed = true
	}
	if progressed {
		// Forward progress resets exponential backoff (as TCP does):
		// back to the RTT-derived timeout, or the floor with no samples.
		if p.srtt > 0 {
			rto := p.srtt + 4*p.rttvar
			if rto < m.cfg.RTO {
				rto = m.cfg.RTO
			}
			if rto > m.cfg.MaxRTO {
				rto = m.cfg.MaxRTO
			}
			p.rto = rto
		} else {
			p.rto = m.cfg.RTO
		}
	}
	// The overtaken-packet rule: the peer received a transmission made
	// after the last one of the first packet it still lacks, so that
	// packet is lost, not late. Resend it now instead of one RTO later;
	// its fresh stamp keeps the acks still under way from resending it
	// again.
	if pkt, ok := p.unacked[want]; ok && pkt.sentAt < echoTS {
		m.resend(p, pkt)
	}
	// Top the window up from the backlog.
	for len(p.sendQ) > 0 && len(p.unacked) < m.cfg.Window {
		pkt := p.sendQ[0]
		p.sendQ[0] = nil
		p.sendQ = p.sendQ[1:]
		p.unacked[pkt.seq] = pkt
		m.transmit(p, pkt)
	}
	switch {
	case len(p.unacked) == 0:
		m.stopRetransmit(p)
	case progressed:
		// Restart the clock with the current (possibly just reduced)
		// timeout: a timer armed during backoff would otherwise keep
		// pacing retransmissions at the backed-off interval even while
		// acks flow.
		p.rtArmed = true
		p.rtimer.Reset(p.rto)
	default:
		m.armRetransmit(p)
	}
}

func (m *Module) deliver(rv Recv) {
	m.stats.Delivered++
	if h, ok := m.handlers[rv.Channel]; ok {
		h(rv)
		return
	}
	buf := m.unclaimed[rv.Channel]
	if len(buf) >= m.cfg.BufferLimit {
		m.stats.BufferDrops++
		dropCounter.Add(1)
		m.Stk.Logf("rp2p: channel %q buffer full, dropping", rv.Channel)
		return
	}
	m.unclaimed[rv.Channel] = append(buf, rv)
	m.stats.Buffered++
}
