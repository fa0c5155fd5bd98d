package abcast

import (
	"fmt"
	"time"

	"repro/internal/consensus"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/rp2p"
	"repro/internal/wire"
)

// ctModule is the Chandra–Toueg atomic broadcast: its origin sends every
// message to every peer once, over rp2p; a sequence of consensus
// instances agrees, one batch at a time, on the delivery order of the
// not-yet-delivered messages.
//
// Consensus orders identifiers, not payloads (indirect consensus, Ekwall
// & Schiper, DSN 2006): a proposal is a list of (origin, seq) ids and a
// payload crosses each link once, from its origin. Through the readiness
// predicate held a stack proposes, adopts and acks only a list whose
// payloads it holds, so a decided list is held by a majority, hence by a
// correct stack. A correct origin reaches every correct stack over rp2p's
// reliable FIFO channels. An origin that crashed mid-send leaves some
// stacks without the payload: delivery suspends at its decided id, or
// held rejects a proposal naming it, and after pullAfter the stack pulls
// the payload from its peers. The pull is the only relay, and it costs
// something only after a crash — or after this stack's rp2p buffer
// dropped a payload that arrived before the epoch's module existed. (A
// stack with nothing to propose sends consensus no estimate: when the
// crashed origin reached too few stacks for a quorum of proposers, its
// last payloads wait for the next broadcast of a correct stack.)
//
// This is the implementation measured in the paper's experiments (the
// ABcast module of Figure 4, on top of CT consensus): uniform, and
// tolerant of any minority of crashes.
//
// A stack proposes once per executor pass, from the flusher that sends
// the pass's payload frame: every id received or freed in the pass joins
// the same proposal, so a proposal grows with the load, and a lone
// payload is still proposed in the pass it arrived in. Instances are
// pipelined: up to maxInflight run concurrently, each proposing a
// disjoint slice of at most maxBatch ids of the pending backlog.
// Decisions are still processed strictly in instance order (out-of-order
// arrivals buffer in decBuf); the pipeline only overlaps the round-trips
// of consecutive instances. Proposing a message in two instances is
// harmless (delivery dedups); the in-flight set avoids it.
type ctModule struct {
	kernel.Base
	epoch   uint64
	channel string           // rp2p channel of payloads and pulls, epoch-scoped
	consSvc kernel.ServiceID // which consensus service orders batches

	sendSeq    uint64
	frame      *wire.Writer // payloads broadcast in this executor pass, not sent yet
	proposeDue bool         // this pass received a payload or closed a decision
	unregister func()
	pending    map[msgID][]byte // received but not delivered
	delivered  map[msgID]bool
	k          uint64             // next consensus instance to process in this epoch's group
	nextK      uint64             // next consensus instance to propose on (>= k)
	running    int                // proposals outstanding in [k, nextK)
	inFlight   map[msgID]bool     // ids carried by an outstanding proposal of ours
	proposed   map[uint64][]msgID // instance -> ids our proposal carried
	proposedAt map[uint64]time.Time
	decBuf     map[uint64][]byte // out-of-order decisions, bounded by maxDecBuf
	decDropped map[uint64]bool   // decisions evicted from decBuf, to refetch at their turn

	open      bool    // decision k is being delivered: cur[at:] is still to deliver; outside
	cur       []msgID // drain, open means delivery is suspended at cur[at], whose payload is missing
	at        int
	kept      map[msgID][]byte     // delivered payloads of the last maxDecBuf decisions
	keptIDs   [maxDecBuf][]msgID   // what each of those decisions delivered, by k mod maxDecBuf
	consWaits bool                 // held reported a payload missing: Recheck when one arrives
	unheld    []byte               // the last id list held rejected, for pull
	pullTimer *kernel.Timer        // armed when drain or held found a payload missing
	denied    map[kernel.Addr]bool // peers that answered the last pull without cur[at]
}

// maxInflight bounds how many consensus instances this stack proposes
// concurrently. Depth 1 is the classic serial reduction; a modest
// pipeline overlaps the round-trips without flooding the substrate.
const maxInflight = 4

// maxDecBuf bounds the out-of-order decision buffer: a stack that falls
// behind would otherwise buffer decisions without limit. Beyond the cap
// the furthest-ahead decision is dropped and counted; it is refetched
// from the consensus module's decision cache (consensus.Refetch) when
// its turn comes. The same constant bounds, in processed decisions, how
// long a delivered payload is retained for peers' pulls.
const maxDecBuf = 256

// maxBatch bounds how many messages one consensus instance orders; the
// overflow waits for the next instance. A proposal of maxBatch ids fits
// one datagram on every fabric, whatever the payloads weigh.
const maxBatch = 256

// pullAfter is how long delivery stays suspended at a decided id before
// the payload is pulled from the peers, and the time between two pulls:
// far beyond the lag of a dissemination merely slower than the decision.
const pullAfter = 200 * time.Millisecond

// maxFrameBytes caps a payload frame. A link carries a frame whole
// before its receiver can use any of it, so a burst leaves as several
// frames, and the receivers take in — and start ordering — the first
// while the later ones are still on the wire: on the simulated 100-Mbit
// LAN a 48-KiB frame costs 3.9 ms, a 16-KiB one 1.3. A payload larger
// than the cap travels in a frame of its own.
const maxFrameBytes = 16 << 10

// maxCopyBytes bounds the payloads copied into a frame: a larger one
// leaves at once, alone, by reference (rp2p.Send.Body). It keeps every
// frame under the UDP datagram ceiling (transport.MaxDatagram).
const maxCopyBytes = 48 << 10

// Message kinds on the epoch's rp2p channel: a pull request (an id
// list), its response ((origin, seq, found, payload) per id), and a
// payload frame ((origin, seq, payload) per message this stack broadcast
// in one executor pass).
const pullReq, pullResp, payloadFrame byte = 0, 1, 2

// decBufDrops counts decisions evicted from the bounded decBuf;
// payloadWaits deliveries suspended at an id whose payload had not
// arrived; payloadPulls the pulls issued for one that stayed missing;
// payloadLost the stacks halted because no peer could serve a pull.
var (
	decBufDrops  = metrics.NewCounter("abcast.ct.decbuf_drops")
	payloadWaits = metrics.NewCounter("abcast.ct.payload_waits")
	payloadPulls = metrics.NewCounter("abcast.ct.payload_pulls")
	payloadLost  = metrics.NewCounter("abcast.ct.payload_lost")
)

// Adaptation signals: decided instances and the smoothed
// propose-to-decide latency of the instances this stack proposed, which
// internal/policy samples to tell whether consensus is keeping up.
var (
	decisionCounter  = metrics.NewCounter("abcast.decisions")
	consLatencyGauge = metrics.NewGauge("abcast.consensus_latency_us")
)

// CTImpl returns the implementation descriptor for abcast/ct, using the
// default consensus service.
func CTImpl() Impl {
	return CTImplOn(ProtocolCT, consensus.Service)
}

// CTImplOn returns a CT atomic-broadcast variant bound to a specific
// consensus service. Registering such a variant and switching to it is
// the consensus-replacement extension ([16] in the paper): the
// create_module recursion instantiates the new consensus protocol as a
// required service of the new ABcast module, while the old epoch keeps
// draining on the old consensus protocol.
func CTImplOn(name string, consSvc kernel.ServiceID) Impl {
	return Impl{
		Name:     name,
		Requires: []kernel.ServiceID{rp2p.Service, consSvc},
		New: func(st *kernel.Stack, epoch uint64) kernel.Module {
			return &ctModule{
				Base:       kernel.NewBase(st, name),
				epoch:      epoch,
				channel:    fmt.Sprintf("ab/%s/%d", name, epoch),
				consSvc:    consSvc,
				pending:    make(map[msgID][]byte),
				delivered:  make(map[msgID]bool),
				inFlight:   make(map[msgID]bool),
				proposed:   make(map[uint64][]msgID),
				proposedAt: make(map[uint64]time.Time),
				decBuf:     make(map[uint64][]byte),
				decDropped: make(map[uint64]bool),
				kept:       make(map[msgID][]byte),
			}
		},
	}
}

// Start attaches to the epoch-scoped channel and consensus group, and
// registers the flusher that ends each executor pass: it sends the
// pass's payload frame, then proposes.
// The consensus Listen replays decisions of this group that were made
// before this module existed (a module created mid-update catches up).
func (m *ctModule) Start() {
	m.Stk.Call(rp2p.Service, rp2p.Listen{Channel: m.channel, Handler: m.onRecv})
	m.Stk.Call(m.consSvc, consensus.Listen{Group: m.epoch, Handler: m.onDecide, Ready: m.held})
	m.unregister = m.Stk.RegisterFlusher(m.passEnd)
}

// Stop sends what this pass still holds, detaches from the substrate and
// garbage-collects this epoch's decision cache (the module is the sole
// user of its consensus group).
func (m *ctModule) Stop() {
	if m.pullTimer != nil {
		m.pullTimer.Stop()
	}
	m.flush()
	if m.unregister != nil {
		m.unregister()
	}
	m.Stk.Call(rp2p.Service, rp2p.Unlisten{Channel: m.channel})
	m.Stk.Call(m.consSvc, consensus.Forget{Group: m.epoch})
}

// HandleRequest processes Broadcast: the payload joins this pass's frame,
// or leaves at once if it is too large to copy, and this stack's own
// copy is received here and now.
func (m *ctModule) HandleRequest(_ kernel.ServiceID, req kernel.Request) {
	b, ok := req.(Broadcast)
	if !ok {
		return
	}
	m.sendSeq++
	id := msgID{origin: m.Stk.Addr(), seq: m.sendSeq}
	if len(b.Data) > maxCopyBytes {
		m.sendAlone(id, b.Data)
		return
	}
	if m.frame != nil && m.frame.Len()+len(b.Data)+24 > maxFrameBytes {
		m.flush()
	}
	if m.frame == nil {
		// Fresh, never pooled: the pending payloads of this stack alias it.
		m.frame = wire.NewWriter(len(b.Data) + 64)
		m.frame.Byte(payloadFrame)
	}
	m.frame.Uvarint(uint64(id.origin)).Uvarint(id.seq).BytesField(b.Data)
	f := m.frame.Bytes()
	m.receive(id, f[len(f)-len(b.Data):len(f):len(f)])
}

// sendAlone sends a payload too large to copy to every peer now,
// after what this pass framed before it: the record header as
// rp2p.Send.Data, the payload itself by reference as rp2p.Send.Body.
func (m *ctModule) sendAlone(id msgID, data []byte) {
	m.flush()
	head := wire.NewWriter(24)
	head.Byte(payloadFrame).Uvarint(uint64(id.origin)).Uvarint(id.seq).Uvarint(uint64(len(data)))
	for _, p := range m.Stk.Others() {
		m.Stk.CallSync(rp2p.Service, rp2p.Send{To: p, Channel: m.channel, Data: head.Bytes(), Body: data})
	}
	m.receive(id, data)
}

// passEnd runs as a stack flusher after every executor pass: the pass's
// payload frame leaves, then what the pass made proposable is proposed.
func (m *ctModule) passEnd() {
	m.flush()
	if m.proposeDue {
		m.proposeDue = false
		m.maybePropose()
	}
}

// flush sends the payload frame of this pass to every peer as one rp2p
// message.
func (m *ctModule) flush() {
	if m.frame == nil {
		return
	}
	data := m.frame.Bytes()
	m.frame = nil
	for _, p := range m.Stk.Others() {
		m.Stk.CallSync(rp2p.Service, rp2p.Send{To: p, Channel: m.channel, Data: data})
	}
}

// receive takes in one payload, from its origin or from a pull.
func (m *ctModule) receive(id msgID, data []byte) {
	if m.delivered[id] {
		return
	}
	if _, dup := m.pending[id]; dup {
		return
	}
	m.pending[id] = data
	if m.consWaits {
		m.consWaits = false
		m.Stk.Call(m.consSvc, consensus.Recheck{Group: m.epoch})
	}
	if m.open && m.cur[m.at] == id {
		m.drain() // delivery was suspended at this very message
		return
	}
	m.proposeDue = true
}

// encodeIDs is the value handed to consensus and the body of a pull
// request: runs of consecutive sequence numbers of one origin, (origin,
// first seq, length ≤ maxBatch) each. A sorted batch is a handful of runs.
func encodeIDs(ids []msgID) []byte {
	w := wire.NewWriter(16)
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && j-i < maxBatch && ids[j].origin == ids[i].origin && ids[j].seq == ids[j-1].seq+1 {
			j++
		}
		w.Uvarint(uint64(ids[i].origin)).Uvarint(ids[i].seq).Uvarint(uint64(j - i))
		i = j
	}
	return w.Bytes()
}

// eachID calls fn for the ids of an encoded list, in order; it reports
// whether the list was well-formed and fn accepted every id.
func eachID(r *wire.Reader, fn func(msgID) bool) bool {
	for r.Remaining() > 0 {
		origin, first, n := kernel.Addr(r.Uvarint()), r.Uvarint(), r.Uvarint()
		if r.Err() != nil || n > maxBatch {
			return false
		}
		for i := uint64(0); i < n; i++ {
			if !fn(msgID{origin: origin, seq: first + i}) {
				return false
			}
		}
	}
	return true
}

// missing reports whether this stack has never received id's payload.
func (m *ctModule) missing(id msgID) bool {
	_, pend := m.pending[id]
	return !pend && !m.delivered[id]
}

// held is the readiness predicate given to consensus: this stack has
// received every payload the id list names. A list that stays unheld is
// pulled too: consensus may need this very stack's ack to decide it.
func (m *ctModule) held(val []byte) bool {
	ok := eachID(wire.NewReader(val), func(id msgID) bool { return !m.missing(id) })
	if !ok {
		m.consWaits, m.unheld = true, val
		m.armPull()
	}
	return ok
}

func (m *ctModule) armPull() {
	if m.pullTimer == nil {
		m.pullTimer = m.Stk.After(pullAfter, m.pull)
	}
}

// maybePropose starts consensus instances on the pending backlog, up to
// the pipeline depth, each carrying ids no other outstanding proposal
// of ours already covers.
func (m *ctModule) maybePropose() {
	if m.nextK < m.k {
		m.nextK = m.k
	}
	// No len(pending)-vs-len(inFlight) shortcut here: inFlight can hold
	// ids another stack's decision already removed from pending, which
	// would make such a comparison undercount proposable work.
	for m.running < maxInflight && len(m.pending) > 0 {
		ids := make([]msgID, 0, len(m.pending))
		for id := range m.pending {
			if !m.inFlight[id] {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			return
		}
		sortIDs(ids)
		if len(ids) > maxBatch {
			ids = ids[:maxBatch]
		}
		for _, id := range ids {
			m.inFlight[id] = true
		}
		m.proposed[m.nextK] = ids
		m.proposedAt[m.nextK] = m.Stk.Now()
		m.running++
		m.Stk.Call(m.consSvc, consensus.Propose{
			ID:    consensus.InstanceID{Group: m.epoch, Seq: m.nextK},
			Value: encodeIDs(ids),
		})
		m.nextK++
	}
}

func (m *ctModule) onDecide(d consensus.Decide) {
	switch {
	case d.ID.Seq < m.k, d.ID.Seq == m.k && m.open:
		return // replayed or duplicate decision, already taken in
	case d.ID.Seq > m.k:
		m.bufferDecision(d.ID.Seq, d.Value)
		return
	}
	m.openDecision(d.Value)
	m.drain()
}

// bufferDecision holds an out-of-order decision, evicting the
// furthest-ahead one when the buffer is full; the consensus module caches
// every decision until Forget, so an evicted one is refetched at its turn.
func (m *ctModule) bufferDecision(seq uint64, val []byte) {
	if _, dup := m.decBuf[seq]; dup {
		return
	}
	if len(m.decBuf) >= maxDecBuf {
		far := seq
		for s := range m.decBuf {
			if s > far {
				far = s
			}
		}
		decBufDrops.Add(1)
		m.decDropped[far] = true
		if far == seq {
			return // the newcomer is the furthest ahead: don't store it
		}
		delete(m.decBuf, far)
	}
	m.decBuf[seq] = val
}

// openDecision makes instance k's decided id list the one being delivered.
func (m *ctModule) openDecision(val []byte) {
	m.cur = m.cur[:0:0]
	eachID(wire.NewReader(val), func(id msgID) bool {
		m.cur = append(m.cur, id)
		return true
	})
	m.open, m.at = true, 0
}

// drain delivers the open decision in its decided order, then every
// consecutive decision already buffered. At an id whose payload has not
// arrived it returns with the decision left open: receive resumes it,
// and the pull timer repairs it if the payload never comes.
func (m *ctModule) drain() {
	for m.open {
		for ; m.at < len(m.cur); m.at++ {
			id := m.cur[m.at]
			if m.delivered[id] {
				continue
			}
			data, ok := m.pending[id]
			if !ok {
				payloadWaits.Add(1)
				m.armPull()
				return
			}
			m.delivered[id] = true
			delete(m.pending, id)
			m.kept[id] = data
			m.Stk.Indicate(ServiceImpl, Deliver{Origin: id.origin, Data: data})
		}
		m.closeDecision()
		if val, ok := m.decBuf[m.k]; ok {
			delete(m.decBuf, m.k)
			m.openDecision(val)
		} else if m.decDropped[m.k] {
			// Evicted from the bounded buffer: fetch it back from the
			// consensus decision cache; it re-arrives through onDecide.
			delete(m.decDropped, m.k)
			m.Stk.Call(m.consSvc, consensus.Refetch{
				ID: consensus.InstanceID{Group: m.epoch, Seq: m.k},
			})
		}
	}
	m.proposeDue = true
}

// closeDecision ends decision k: it rotates the retention ring, advances
// and releases this stack's proposal (ids that lost are proposable again).
func (m *ctModule) closeDecision() {
	slot := &m.keptIDs[m.k%maxDecBuf]
	for _, id := range *slot {
		delete(m.kept, id)
	}
	*slot = m.cur
	m.open, m.denied = false, nil
	decisionCounter.Add(1)
	if ids, ok := m.proposed[m.k]; ok {
		delete(m.proposed, m.k)
		m.running--
		for _, id := range ids {
			delete(m.inFlight, id)
		}
		if at, ok := m.proposedAt[m.k]; ok {
			delete(m.proposedAt, m.k)
			consLatencyGauge.Observe(m.Stk.Now().Sub(at).Microseconds())
		}
	}
	m.k++
}

// pull fires pullAfter after drain or held found a payload missing. What
// still is, is lost, not late — its origin crashed before sending it
// here, or rp2p.buffer_drops before the epoch's module existed: ask every
// peer, again while delivery stays suspended.
func (m *ctModule) pull() {
	m.pullTimer = nil
	var want []msgID
	add := func(id msgID) bool {
		if m.missing(id) {
			want = append(want, id)
		}
		return true
	}
	eachID(wire.NewReader(m.unheld), add)
	m.unheld = nil
	if m.open {
		for _, id := range m.cur[m.at:] {
			add(id)
		}
		for seq := m.k + 1; m.decBuf[seq] != nil; seq++ {
			eachID(wire.NewReader(m.decBuf[seq]), add)
		}
		m.armPull()
	}
	if len(want) == 0 {
		return
	}
	payloadPulls.Add(1)
	m.denied = make(map[kernel.Addr]bool)
	req := append([]byte{pullReq}, encodeIDs(want)...)
	for _, p := range m.Stk.Others() {
		m.Stk.Call(rp2p.Service, rp2p.Send{To: p, Channel: m.channel, Data: req})
	}
}

// onRecv takes in a peer's payload frame, serves a peer's pull from
// pending and the retained payloads, and takes in the answers to this
// stack's own: every requested id, with or without its payload. Once
// every peer answered without the one delivery is suspended at, no stack
// retains it and this one halts as if crashed.
func (m *ctModule) onRecv(rv rp2p.Recv) {
	r := wire.NewReader(rv.Data)
	switch r.Byte() {
	case payloadFrame:
		for r.Remaining() > 0 {
			id := msgID{origin: kernel.Addr(r.Uvarint()), seq: r.Uvarint()}
			data := r.BytesField()
			if r.Err() != nil {
				return
			}
			m.receive(id, data)
		}
	case pullReq:
		w := wire.NewWriter(64)
		w.Byte(pullResp)
		eachID(r, func(id msgID) bool {
			data, ok := m.pending[id]
			if !ok {
				data, ok = m.kept[id]
			}
			w.Uvarint(uint64(id.origin)).Uvarint(id.seq).Bool(ok).BytesField(data)
			return true
		})
		m.Stk.Call(rp2p.Service, rp2p.Send{To: rv.From, Channel: m.channel, Data: w.Bytes()})
	case pullResp:
		for r.Remaining() > 0 {
			id := msgID{origin: kernel.Addr(r.Uvarint()), seq: r.Uvarint()}
			found, data := r.Bool(), r.BytesField()
			if r.Err() != nil {
				return
			}
			if found {
				m.receive(id, data)
			} else if m.denied != nil && m.open && m.cur[m.at] == id {
				m.denied[rv.From] = true
			}
		}
		for _, p := range m.Stk.Others() {
			if !m.denied[p] {
				return
			}
		}
		if len(m.denied) > 0 {
			payloadLost.Add(1)
			m.Stk.Logf("abcast/ct: epoch %d: no peer holds decided message %d/%d any more; halting this stack",
				m.epoch, m.cur[m.at].origin, m.cur[m.at].seq)
			m.Stk.Crash()
		}
	}
}
