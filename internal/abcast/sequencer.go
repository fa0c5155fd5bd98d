package abcast

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/rp2p"
	"repro/internal/wire"
)

// seqModule is a fixed-sequencer atomic broadcast (the classic "UB"
// unicast-broadcast variant): senders forward messages to the sequencer
// — the lowest stack address of the group — which assigns a global
// sequence number and broadcasts the ordered message to everybody;
// stacks deliver in global sequence order. Both legs leave once per
// executor pass, from a flusher: an origin's broadcasts as one data frame
// to the sequencer, and what the sequencer stamped — its own broadcasts
// with no round trip — as one ordered frame per member (see ordFrame).
//
// The ordering guarantee holds in crash-free runs: the sequencer is a
// single point of failure and no takeover protocol is included. The
// paper's replacement algorithm is exactly the remedy when more
// resilience becomes necessary: switch to abcast/ct on the fly.
type seqModule struct {
	kernel.Base
	channel   string
	sequencer kernel.Addr

	data       *wire.Writer // origin: this pass's broadcasts, for the sequencer
	ord        *wire.Writer // sequencer: this pass's stamped messages, for everybody
	nextGlobal uint64       // sequencer only: next global number to assign
	unregister func()
	in         inOrder
}

// seqData is the kind of a data frame: (seqData, origin) then (len,
// payload) per message the origin broadcast in one pass.
const seqData byte = 1

// SequencerImpl returns the implementation descriptor for abcast/seq.
func SequencerImpl() Impl {
	return Impl{
		Name:     ProtocolSeq,
		Requires: []kernel.ServiceID{rp2p.Service},
		New: func(st *kernel.Stack, epoch uint64) kernel.Module {
			seq := st.Peers()[0]
			for _, p := range st.Peers() {
				if p < seq {
					seq = p
				}
			}
			return &seqModule{
				Base:      kernel.NewBase(st, ProtocolSeq),
				channel:   fmt.Sprintf("sq/%d", epoch),
				sequencer: seq,
			}
		},
	}
}

// Start attaches to the epoch-scoped RP2P channel (messages that arrived
// before this module existed were buffered by RP2P and flush now, in
// order) and registers the flusher.
func (m *seqModule) Start() {
	m.Stk.Call(rp2p.Service, rp2p.Listen{Channel: m.channel, Handler: m.onRecv})
	m.unregister = m.Stk.RegisterFlusher(m.flush)
}

// Stop sends what this pass still holds and detaches from RP2P.
func (m *seqModule) Stop() {
	m.flush()
	if m.unregister != nil {
		m.unregister()
	}
	m.Stk.Call(rp2p.Service, rp2p.Unlisten{Channel: m.channel})
}

// HandleRequest processes Broadcast: the sequencer stamps the payload,
// any other stack adds it to this pass's data frame.
func (m *seqModule) HandleRequest(_ kernel.ServiceID, req kernel.Request) {
	b, ok := req.(Broadcast)
	if !ok {
		return
	}
	if m.Stk.Addr() == m.sequencer {
		m.stamp(m.Stk.Addr(), b.Data)
		return
	}
	if frameFull(m.data, len(b.Data)) {
		m.flush()
	}
	if m.data == nil {
		m.data = wire.NewWriter(len(b.Data) + 64)
		m.data.Byte(seqData).Uvarint(uint64(m.Stk.Addr()))
	}
	m.data.BytesField(b.Data)
}

// stamp (sequencer) gives a message the next global number, in this
// pass's ordered frame.
func (m *seqModule) stamp(origin kernel.Addr, data []byte) {
	if frameFull(m.ord, len(data)) {
		m.flush()
	}
	m.ord = appendOrdered(m.ord, m.nextGlobal, origin, data)
	m.nextGlobal++
}

// flush runs as a stack flusher after every executor pass: the pass's
// data frame leaves for the sequencer, its ordered frame for everybody.
func (m *seqModule) flush() {
	data, ord := m.data, m.ord
	m.data, m.ord = nil, nil
	sendFrame(m.Stk, m.channel, data, m.sequencer)
	sendFrame(m.Stk, m.channel, ord, m.Stk.Peers()...)
}

func (m *seqModule) onRecv(rv rp2p.Recv) {
	r := wire.NewReader(rv.Data)
	switch r.Byte() {
	case seqData:
		if m.Stk.Addr() != m.sequencer {
			return // not addressed to me; stale routing
		}
		origin := kernel.Addr(r.Uvarint())
		for r.Remaining() > 0 {
			data := r.BytesField()
			if r.Err() != nil {
				return
			}
			m.stamp(origin, data)
		}
	case ordFrame:
		m.in.take(m.Stk, r)
	}
}
