package abcast

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/kernel"
	"repro/internal/rp2p"
	"repro/internal/wire"
)

// tokenModule is a moving-sequencer (privilege-based) atomic broadcast:
// a token carrying the next global sequence number circulates around the
// ring of stacks; the holder stamps its pending messages with
// consecutive numbers, broadcasts them, and passes the token on. All
// stacks deliver in stamp order.
//
// Like abcast/seq this variant's guarantees are for crash-free runs:
// token regeneration after a holder crash is not implemented. It trades
// higher latency at low load (waiting for the token) for sender fairness
// and no fixed bottleneck — giving the protocol-switch benchmarks a
// third, behaviourally distinct implementation.
type tokenModule struct {
	kernel.Base
	epoch   uint64
	channel string
	cfg     TokenConfig
	ring    []kernel.Addr

	sendSeq  uint64
	pending  []Deliver // local messages waiting for the token
	hasToken bool
	tokenSeq uint64        // next global number the token will assign
	idleWait *kernel.Timer // the idle hold, re-armed whenever the token is held idle

	nextDel uint64
	hold    map[uint64]Deliver
}

// TokenConfig tunes the token protocol.
type TokenConfig struct {
	// HoldIdle is how long an idle holder keeps the token before
	// passing it on; bounds token-circulation traffic at zero load.
	HoldIdle time.Duration
}

func (c TokenConfig) withDefaults() TokenConfig {
	if c.HoldIdle <= 0 {
		c.HoldIdle = 2 * time.Millisecond
	}
	return c
}

const (
	tokMsgOrd   byte = 0
	tokMsgToken byte = 1
)

// TokenImpl returns the implementation descriptor for abcast/token.
func TokenImpl(cfg TokenConfig) Impl {
	cfg = cfg.withDefaults()
	return Impl{
		Name:     ProtocolToken,
		Requires: []kernel.ServiceID{rp2p.Service},
		New: func(st *kernel.Stack, epoch uint64) kernel.Module {
			ring := append([]kernel.Addr(nil), st.Peers()...)
			sort.Slice(ring, func(i, j int) bool { return ring[i] < ring[j] })
			m := &tokenModule{
				Base:    kernel.NewBase(st, ProtocolToken),
				epoch:   epoch,
				channel: fmt.Sprintf("tk/%d", epoch),
				cfg:     cfg,
				ring:    ring,
				hold:    make(map[uint64]Deliver),
			}
			m.idleWait = st.NewTimer(m.passIdle)
			return m
		},
	}
}

// passIdle passes on a token held idle for HoldIdle.
func (m *tokenModule) passIdle() {
	if m.hasToken {
		m.flushAndPass()
	}
}

// Start attaches to the epoch channel; the lowest address mints the
// initial token.
func (m *tokenModule) Start() {
	m.Stk.Call(rp2p.Service, rp2p.Listen{Channel: m.channel, Handler: m.onRecv})
	if m.Stk.Addr() == m.ring[0] {
		m.acquireToken(0)
	}
}

// Stop detaches and drops the token if held (crash-free model).
func (m *tokenModule) Stop() {
	m.idleWait.Stop()
	m.Stk.Call(rp2p.Service, rp2p.Unlisten{Channel: m.channel})
}

func (m *tokenModule) next() kernel.Addr {
	for i, a := range m.ring {
		if a == m.Stk.Addr() {
			return m.ring[(i+1)%len(m.ring)]
		}
	}
	return m.ring[0]
}

// HandleRequest queues Broadcast payloads until the token arrives.
func (m *tokenModule) HandleRequest(_ kernel.ServiceID, req kernel.Request) {
	b, ok := req.(Broadcast)
	if !ok {
		return
	}
	m.sendSeq++
	m.pending = append(m.pending, Deliver{Origin: m.Stk.Addr(), Data: b.Data})
	if m.hasToken {
		m.flushAndPass()
	}
}

func (m *tokenModule) acquireToken(seq uint64) {
	m.hasToken = true
	m.tokenSeq = seq
	if len(m.pending) > 0 {
		m.flushAndPass()
		return
	}
	// Idle: hold briefly so an imminent broadcast can use the token,
	// then pass it on.
	m.idleWait.Reset(m.cfg.HoldIdle)
}

// flushAndPass stamps and broadcasts pending messages, then forwards
// the token.
func (m *tokenModule) flushAndPass() {
	m.idleWait.Stop()
	for _, d := range m.pending {
		g := m.tokenSeq
		m.tokenSeq++
		w := wire.NewWriter(len(d.Data) + 24)
		w.Byte(tokMsgOrd).Uvarint(g).Uvarint(uint64(d.Origin)).Raw(d.Data)
		ord := w.Bytes()
		for _, p := range m.ring {
			m.Stk.Call(rp2p.Service, rp2p.Send{To: p, Channel: m.channel, Data: ord})
		}
	}
	m.pending = nil
	m.hasToken = false
	w := wire.NewWriter(12)
	w.Byte(tokMsgToken).Uvarint(m.tokenSeq)
	m.Stk.Call(rp2p.Service, rp2p.Send{To: m.next(), Channel: m.channel, Data: w.Bytes()})
}

func (m *tokenModule) onRecv(rv rp2p.Recv) {
	r := wire.NewReader(rv.Data)
	switch r.Byte() {
	case tokMsgToken:
		seq := r.Uvarint()
		if r.Err() != nil {
			return
		}
		m.acquireToken(seq)
	case tokMsgOrd:
		g := r.Uvarint()
		origin := kernel.Addr(r.Uvarint())
		data := r.Rest()
		if r.Err() != nil {
			return
		}
		if g < m.nextDel {
			return
		}
		m.hold[g] = Deliver{Origin: origin, Data: data}
		for {
			d, ok := m.hold[m.nextDel]
			if !ok {
				break
			}
			delete(m.hold, m.nextDel)
			m.nextDel++
			m.Stk.Indicate(ServiceImpl, d)
		}
	}
}
