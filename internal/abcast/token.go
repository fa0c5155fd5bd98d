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
// consecutive numbers, broadcasts them, and passes the token on — from a
// flusher, so the whole queue leaves in ordered frames (see ordFrame),
// one per member per pass. All stacks deliver in stamp order.
//
// Like abcast/seq this variant's guarantees are for crash-free runs:
// token regeneration after a holder crash is not implemented. It trades
// higher latency at low load (waiting for the token) for sender fairness
// and no fixed bottleneck — giving the protocol-switch benchmarks a
// third, behaviourally distinct implementation.
type tokenModule struct {
	kernel.Base
	channel string
	cfg     TokenConfig
	ring    []kernel.Addr

	pending    [][]byte // local payloads waiting for the token
	hasToken   bool
	tokenSeq   uint64        // next global number the token will assign
	idleWait   *kernel.Timer // the idle hold, re-armed whenever the token is held idle
	unregister func()
	in         inOrder
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

// tokToken is the kind of the token: (tokToken, next global number).
const tokToken byte = 1

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
				channel: fmt.Sprintf("tk/%d", epoch),
				cfg:     cfg,
				ring:    ring,
			}
			m.idleWait = st.NewTimer(m.flushAndPass)
			return m
		},
	}
}

// Start attaches to the epoch channel and registers the flusher; the
// lowest address mints the initial token.
func (m *tokenModule) Start() {
	m.Stk.Call(rp2p.Service, rp2p.Listen{Channel: m.channel, Handler: m.onRecv})
	m.unregister = m.Stk.RegisterFlusher(m.passEnd)
	if m.Stk.Addr() == m.ring[0] {
		m.acquireToken(0)
	}
}

// Stop sends what a holder still has pending, detaches, and drops the
// token if held (crash-free model).
func (m *tokenModule) Stop() {
	m.passEnd()
	if m.unregister != nil {
		m.unregister()
	}
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

// HandleRequest queues Broadcast payloads until the token is here and
// the pass ends.
func (m *tokenModule) HandleRequest(_ kernel.ServiceID, req kernel.Request) {
	if b, ok := req.(Broadcast); ok {
		m.pending = append(m.pending, b.Data)
	}
}

// acquireToken takes the token in: the flusher ending this pass sends
// what is pending, or else the holder keeps it for a broadcast to come.
func (m *tokenModule) acquireToken(seq uint64) {
	m.hasToken = true
	m.tokenSeq = seq
	if len(m.pending) == 0 {
		m.idleWait.Reset(m.cfg.HoldIdle)
	}
}

// passEnd runs as a stack flusher after every executor pass.
func (m *tokenModule) passEnd() {
	if len(m.pending) > 0 {
		m.flushAndPass()
	}
}

// flushAndPass, run by the flusher and when the idle hold expires, has
// the holder stamp its pending messages into ordered frames, send them
// to every member, then forward the token.
func (m *tokenModule) flushAndPass() {
	if !m.hasToken {
		return
	}
	m.idleWait.Stop()
	var w *wire.Writer
	for _, data := range m.pending {
		if frameFull(w, len(data)) {
			sendFrame(m.Stk, m.channel, w, m.ring...)
			w = nil
		}
		w = appendOrdered(w, m.tokenSeq, m.Stk.Addr(), data)
		m.tokenSeq++
	}
	sendFrame(m.Stk, m.channel, w, m.ring...)
	clear(m.pending)
	m.pending, m.hasToken = m.pending[:0], false
	sendFrame(m.Stk, m.channel, wire.NewWriter(12).Byte(tokToken).Uvarint(m.tokenSeq), m.next())
}

func (m *tokenModule) onRecv(rv rp2p.Recv) {
	r := wire.NewReader(rv.Data)
	switch r.Byte() {
	case tokToken:
		seq := r.Uvarint()
		if r.Err() != nil {
			return
		}
		m.acquireToken(seq)
	case ordFrame:
		m.in.take(m.Stk, r)
	}
}
