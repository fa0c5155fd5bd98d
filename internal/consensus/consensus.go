// Package consensus implements the CT module of the paper's stack
// (Figure 4): the Chandra–Toueg ◇S consensus algorithm with a rotating
// coordinator, providing a multi-instance distributed consensus service.
//
// Each instance runs in asynchronous rounds. In round r, with c =
// coordinator(r): (1) a process entering r sends c its estimate and the
// timestamp of its adoption; (2) c, with a majority of estimates,
// proposes the one of highest timestamp; (3) a process adopts and acks
// it; (4) on a majority of acks c reliably broadcasts the decision, once.
//
// Round rule (lazy rounds): a process stays in round r, acked or not,
// until it decides, suspects c, or learns that some process entered a
// higher round, which it then enters directly. Entering R announces R
// to every peer (msgRound); that, or any message of round R, is the
// evidence. A fault-free instance sends nothing of round 1 or above.
//
// Readiness rule (indirect consensus, Ekwall & Schiper, DSN 2006): a
// group's listener may give a predicate Ready(value), "this stack holds
// what value refers to". c proposes only a ready estimate, a process
// adopts and acks only a ready proposal, and Recheck re-evaluates both
// after the user received more. Without a predicate this is plain CT.
//
// Safety needs neither the detector, nor any timing of round changes,
// nor readiness: a process acks in its current round only and rounds
// only grow, so the estimate it sends on entering R carries all it
// adopted below R, and the highest timestamp of any majority of round-R
// estimates is the value locked below R, if there is one.
//
// Liveness needs ◇S and a correct majority: every entry into a round is
// announced, so all correct processes reach the highest round entered; a
// crashed c is suspected by all; a correct c nobody suspects any more
// gets every correct estimate, proposes, and is acked by all. A correct
// sender holds what its estimate names, and a locked value is held by a
// majority, so either reaches every correct stack and turns ready there.
//
// Instances are keyed by (Group, Seq). Groups namespace independent
// users of the service: during a dynamic protocol update, the old and
// the new atomic-broadcast modules run their instances in different
// groups (group = the replacement epoch) over this single shared module,
// which is exactly the composition of Figure 4 where consensus survives
// the ABcast replacement. Decisions are cached per group and replayed to
// late listeners, so a module created mid-run (the new protocol version)
// observes every decision of its group.
package consensus

import (
	"sort"

	"repro/internal/fd"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/rbcast"
	"repro/internal/rp2p"
	"repro/internal/wire"
)

// Service is the default consensus service.
const Service kernel.ServiceID = "consensus"

// Protocol is the default protocol name registered for this module.
const Protocol = "consensus/ct"

const (
	rp2pChannel = "cons"     // point-to-point consensus rounds
	decChannel  = "cons-dec" // reliable broadcast of decisions
)

// roundsStarted counts rounds entered (one per instance and stack when
// fault-free); valueBytesSent the value bytes sent to other stacks.
var (
	roundsStarted  = metrics.NewCounter("consensus.rounds_started")
	valueBytesSent = metrics.NewCounter("consensus.value_bytes_sent")
)

// CoordPolicy selects how the coordinator of a round is chosen.
type CoordPolicy int

// Coordinator policies.
const (
	// Rotating is the classic CT rotating coordinator: coord(r) =
	// peers[r mod n].
	Rotating CoordPolicy = iota
	// Fixed biases the coordinator towards the lowest address: even
	// rounds are coordinated by peers[0], odd rounds rotate over the
	// rest to preserve liveness after a leader crash. The mapping stays
	// a deterministic function of the round — CT's safety argument
	// requires at most one possible proposer per round.
	Fixed
)

// Config parameterises a consensus module instance, so several distinct
// consensus protocols can coexist in one stack (the consensus
// replacement extension): each gets its own service name and wire
// channels.
type Config struct {
	// Service is the service this module provides. Default "consensus".
	Service kernel.ServiceID
	// Protocol is the registered protocol name. Default "consensus/ct".
	Protocol string
	// Channel is the RP2P channel for round messages. Default "cons".
	Channel string
	// DecChannel is the RBcast channel for decisions. Default "cons-dec".
	DecChannel string
	// Policy selects the coordinator strategy. Default Rotating.
	Policy CoordPolicy
}

func (c Config) withDefaults() Config {
	if c.Service == "" {
		c.Service = Service
	}
	if c.Protocol == "" {
		c.Protocol = Protocol
	}
	if c.Channel == "" {
		c.Channel = rp2pChannel
	}
	if c.DecChannel == "" {
		c.DecChannel = decChannel
	}
	return c
}

// InstanceID names one consensus instance.
type InstanceID struct {
	// Group namespaces instances; users of the service pick disjoint
	// groups (the DPU layer uses the replacement epoch).
	Group uint64
	// Seq is the instance number within the group.
	Seq uint64
}

// Propose starts (or joins) an instance with this process's initial
// value. Proposing twice for the same instance is idempotent; proposing
// for a decided instance re-indicates the decision to the group's
// listener.
type Propose struct {
	ID    InstanceID
	Value []byte
}

// Decide is handed to the group's listener when an instance decides.
type Decide struct {
	ID    InstanceID
	Value []byte
}

// Listen registers the decision handler for a group and immediately
// replays all cached decisions of that group in Seq order. The handler
// runs on the stack's executor.
//
// Ready, when non-nil, is the group's readiness predicate: once true for
// a value it stays true. It runs on the executor; no calls back into the
// service.
type Listen struct {
	Group   uint64
	Handler func(Decide)
	Ready   func(value []byte) bool
}

// Recheck re-evaluates Ready on the group's waiting estimates and
// proposals; the user issues it after receiving what Ready had missed.
type Recheck struct {
	Group uint64
}

// Unlisten removes the group's handler; decisions keep accumulating in
// the cache.
type Unlisten struct {
	Group uint64
}

// Forget discards all cached decisions and live instances of a group
// (garbage collection once an epoch is fully retired).
type Forget struct {
	Group uint64
}

// Refetch re-indicates the cached decision of one instance to the
// group's listener, if that instance has decided; otherwise it is a
// no-op. It lets a user that bounds its own out-of-order decision
// buffering recover an evicted decision from the module's cache.
type Refetch struct {
	ID InstanceID
}

// InspectReq asks for a diagnostic snapshot, delivered through Reply on
// the executor.
type InspectReq struct {
	Reply func(Inspect)
}

// Inspect is a diagnostic snapshot of the consensus module.
type Inspect struct {
	// Live instance states, keyed by instance.
	Instances map[InstanceID]InstanceInfo
	// Decisions counts cached decisions.
	Decisions int
	// Suspects is the current local suspect list.
	Suspects []kernel.Addr
}

// InstanceInfo summarises one live instance.
type InstanceInfo struct {
	Started   bool
	Round     uint64
	EstsAt    int // estimates received for the current round
	RepliesAt int // acks received for the current round
	Proposal  bool
}

const (
	msgEst     byte = 0
	msgPropose byte = 1
	msgAck     byte = 2
	msgRound   byte = 3 // the sender entered this round, giving up on those below
)

type estimate struct {
	ts    uint64
	val   []byte
	ready bool // the readiness predicate held once; it stays true
}

// instance is the per-instance state machine.
type instance struct {
	id      InstanceID
	started bool
	round   uint64
	seen    uint64 // highest round some process is known to have entered
	est     []byte
	ts      uint64
	estSent bool // estimate of the current round sent
	acked   bool // proposal of the current round adopted and acked

	ests      map[uint64]map[kernel.Addr]*estimate // round -> sender -> estimate
	proposals map[uint64][]byte                    // round -> coordinator proposal
	acks      map[uint64]map[kernel.Addr]bool      // round -> ackers
	proposed  map[uint64]bool                      // I proposed as coordinator of this round
	decSent   bool                                 // I broadcast the decision
}

func newInstance(id InstanceID) *instance {
	return &instance{
		id:        id,
		ests:      make(map[uint64]map[kernel.Addr]*estimate),
		proposals: make(map[uint64][]byte),
		acks:      make(map[uint64]map[kernel.Addr]bool),
		proposed:  make(map[uint64]bool),
	}
}

// Module implements the consensus service.
type Module struct {
	kernel.Base
	cfg       Config
	peers     []kernel.Addr // sorted
	suspects  map[kernel.Addr]bool
	instances map[InstanceID]*instance
	decisions map[InstanceID][]byte
	groupSeqs map[uint64][]uint64 // decided seqs per group, kept sorted
	listeners map[uint64]Listen
}

// Factory returns the module factory with the default configuration.
func Factory() kernel.Factory { return FactoryWith(Config{}) }

// FactoryWith returns a module factory for a configured consensus
// variant (distinct service name, wire channels, coordinator policy).
func FactoryWith(cfg Config) kernel.Factory {
	cfg = cfg.withDefaults()
	return kernel.Factory{
		Protocol: cfg.Protocol,
		Provides: []kernel.ServiceID{cfg.Service},
		Requires: []kernel.ServiceID{rp2p.Service, rbcast.Service, fd.Service},
		New: func(st *kernel.Stack) kernel.Module {
			peers := append([]kernel.Addr(nil), st.Peers()...)
			sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
			return &Module{
				Base:      kernel.NewBase(st, cfg.Protocol),
				cfg:       cfg,
				peers:     peers,
				suspects:  make(map[kernel.Addr]bool),
				instances: make(map[InstanceID]*instance),
				decisions: make(map[InstanceID][]byte),
				groupSeqs: make(map[uint64][]uint64),
				listeners: make(map[uint64]Listen),
			}
		},
	}
}

// Start wires the module to RP2P, RBcast, the failure detector and the
// kernel's membership indications (the participant set follows the
// installed view).
func (m *Module) Start() {
	m.Stk.Call(rp2p.Service, rp2p.Listen{Channel: m.cfg.Channel, Handler: m.onRecv})
	m.Stk.Call(rbcast.Service, rbcast.Listen{Channel: m.cfg.DecChannel, Handler: m.onDecision})
	m.Stk.Subscribe(fd.Service, m)
	m.Stk.Subscribe(kernel.PeerService, m)
}

// Stop detaches from the substrate services.
func (m *Module) Stop() {
	m.Stk.Call(rp2p.Service, rp2p.Unlisten{Channel: m.cfg.Channel})
	m.Stk.Call(rbcast.Service, rbcast.Unlisten{Channel: m.cfg.DecChannel})
	m.Stk.Unsubscribe(fd.Service, m)
	m.Stk.Unsubscribe(kernel.PeerService, m)
}

func (m *Module) majority() int { return len(m.peers)/2 + 1 }

func (m *Module) coordinator(round uint64) kernel.Addr {
	if len(m.peers) == 1 {
		return m.peers[0]
	}
	if m.cfg.Policy == Fixed {
		if round%2 == 0 {
			return m.peers[0]
		}
		return m.peers[int(1+(round/2)%uint64(len(m.peers)-1))]
	}
	return m.peers[int(round%uint64(len(m.peers)))]
}

// HandleRequest processes the request types declared above.
func (m *Module) HandleRequest(_ kernel.ServiceID, req kernel.Request) {
	switch r := req.(type) {
	case Propose:
		m.propose(r)
	case Listen:
		m.listeners[r.Group] = r
		for _, seq := range m.groupSeqs[r.Group] {
			id := InstanceID{Group: r.Group, Seq: seq}
			r.Handler(Decide{ID: id, Value: m.decisions[id]})
		}
		m.recheck(r.Group) // a listener makes this stack able to coordinate
	case Recheck:
		m.recheck(r.Group)
	case Unlisten:
		delete(m.listeners, r.Group)
	case Refetch:
		if val, done := m.decisions[r.ID]; done {
			m.indicate(Decide{ID: r.ID, Value: val})
		}
	case InspectReq:
		if r.Reply != nil {
			r.Reply(m.inspect())
		}
	case Forget:
		delete(m.listeners, r.Group)
		for _, seq := range m.groupSeqs[r.Group] {
			delete(m.decisions, InstanceID{Group: r.Group, Seq: seq})
		}
		delete(m.groupSeqs, r.Group)
		for id := range m.instances {
			if id.Group == r.Group {
				delete(m.instances, id)
			}
		}
	}
}

func (m *Module) inspect() Inspect {
	out := Inspect{Instances: make(map[InstanceID]InstanceInfo), Decisions: len(m.decisions)}
	for id, inst := range m.instances {
		_, prop := inst.proposals[inst.round]
		out.Instances[id] = InstanceInfo{
			Started:   inst.started,
			Round:     inst.round,
			EstsAt:    len(inst.ests[inst.round]),
			RepliesAt: len(inst.acks[inst.round]),
			Proposal:  prop,
		}
	}
	for p := range m.suspects {
		out.Suspects = append(out.Suspects, p)
	}
	sort.Slice(out.Suspects, func(i, j int) bool { return out.Suspects[i] < out.Suspects[j] })
	return out
}

// HandleIndication tracks the failure detector's suspect set and
// membership views: the participant set (quorums, coordinator
// rotation) is the currently installed view. A view change is ordered
// through the public atomic broadcast, so every surviving stack applies
// the same participant set at the same point of the total order;
// decisions of instances still draining under the old set propagate via
// the reliable decision broadcast regardless.
func (m *Module) HandleIndication(_ kernel.ServiceID, ind kernel.Indication) {
	switch v := ind.(type) {
	case fd.Suspect:
		m.suspects[v.P] = true
	case fd.Restore:
		delete(m.suspects, v.P)
	case kernel.PeersChanged:
		m.peers = append(m.peers[:0:0], v.Peers...) // already sorted
		for _, p := range v.Removed {
			delete(m.suspects, p)
		}
	default:
		return
	}
	// Suspicions unblock processes waiting for a coordinator.
	for _, inst := range m.liveInstances() {
		if inst.started {
			m.advance(inst)
		}
	}
}

// liveInstances returns the undecided instances in instance-ID order:
// advancing them sends messages, and map order would consume the
// simulated network's fault RNG differently on every run of one seed.
func (m *Module) liveInstances() []*instance {
	out := make([]*instance, 0, len(m.instances))
	for _, inst := range m.instances {
		out = append(out, inst)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].id.Group != out[j].id.Group {
			return out[i].id.Group < out[j].id.Group
		}
		return out[i].id.Seq < out[j].id.Seq
	})
	return out
}

// recheck lets the group's instances act on estimates and proposals that
// were waiting for the readiness predicate (or for a listener).
func (m *Module) recheck(group uint64) {
	for _, inst := range m.liveInstances() {
		switch {
		case inst.id.Group != group:
		case inst.started:
			m.advance(inst)
		default:
			m.coordPhase2(inst, inst.seen)
		}
	}
}

// ready applies the group's readiness predicate; for a group nobody
// listens to yet, this stack vouches only for what it proposed itself.
func (m *Module) ready(inst *instance, val []byte) bool {
	l, ok := m.listeners[inst.id.Group]
	if !ok {
		return inst.started
	}
	return l.Ready == nil || l.Ready(val)
}

func (m *Module) propose(p Propose) {
	if val, done := m.decisions[p.ID]; done {
		// Already decided (possibly before this module's user existed):
		// re-indicate so the proposer observes the decision.
		m.indicate(Decide{ID: p.ID, Value: val})
		return
	}
	inst := m.inst(p.ID)
	if inst.started {
		return // duplicate proposal
	}
	inst.started = true
	inst.est = p.Value
	inst.ts = 0
	m.advance(inst)
}

func (m *Module) inst(id InstanceID) *instance {
	in, ok := m.instances[id]
	if !ok {
		in = newInstance(id)
		m.instances[id] = in
	}
	return in
}

// advance drives the round state machine as far as buffered messages,
// suspicions and readiness allow. It is called after every relevant event.
func (m *Module) advance(inst *instance) {
	for {
		r := inst.round
		if inst.seen > r {
			m.enterRound(inst, inst.seen)
			continue
		}
		coord := m.coordinator(r)
		// Phase 1: send the estimate for this round to the coordinator.
		if !inst.estSent {
			inst.estSent = true
			roundsStarted.Add(1)
			if coord != m.Stk.Addr() {
				valueBytesSent.Add(uint64(len(inst.est)))
			}
			m.send(coord, m.header(msgEst, inst.id, r, len(inst.est)+10).Uvarint(inst.ts).Raw(inst.est))
		}
		// Phase 2 (coordinator): with a majority of estimates, propose
		// the one adopted most recently.
		m.coordPhase2(inst, r)
		// Phase 3: adopt and ack the proposal once it is ready here.
		if val, ok := inst.proposals[r]; ok && !inst.acked && m.ready(inst, val) {
			inst.est = val
			// Timestamp r+1, NOT r: an estimate adopted in round 0 must
			// outrank every initial estimate (ts 0), or a round-1
			// coordinator that missed round 0 could prefer its own
			// initial value over one already locked at a majority —
			// two decisions for one instance. (Found by the scenario
			// corpus running over real sockets: flapping links plus
			// spurious suspicion drive exactly that round-0/round-1
			// race.)
			inst.ts = r + 1
			inst.acked = true
			m.send(coord, m.header(msgAck, inst.id, r, 0))
		}
		// Phase 4 runs in onRecv when acks arrive. Short of a decision,
		// only evidence of a higher round (above) or suspicion ends a round.
		if !m.suspects[coord] {
			return
		}
		m.enterRound(inst, r+1)
	}
}

// enterRound moves a started instance to a higher round and tells every
// peer, the evidence that brings them along. (It retracts no earlier
// ack: the coordinator counts acks only.)
func (m *Module) enterRound(inst *instance, round uint64) {
	inst.round, inst.estSent, inst.acked = round, false, false
	w := m.header(msgRound, inst.id, round, 0)
	for _, p := range m.Stk.Others() {
		m.send(p, w)
	}
}

// coordPhase2 lets this process serve as the round's coordinator once a
// majority of estimates arrived and the one to propose is ready here,
// even when the instance was not locally proposed yet: relaying the best
// received estimate is safe and keeps the group live while this stack's
// own proposal is on its way (a module created mid-update, say).
func (m *Module) coordPhase2(inst *instance, round uint64) {
	if inst.proposed[round] || m.coordinator(round) != m.Stk.Addr() {
		return
	}
	if len(inst.ests[round]) < m.majority() {
		return
	}
	// Pick the most recently adopted ready estimate; ties (everyone at ts
	// 0 in round 0 is the common case) break by lowest sender address.
	// Go's randomized map order would pick a different, if equally
	// valid, winner in every run of one seed.
	senders := make([]kernel.Addr, 0, len(inst.ests[round]))
	for a := range inst.ests[round] {
		senders = append(senders, a)
	}
	sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })
	var best *estimate
	ready, top := 0, uint64(0)
	for _, a := range senders {
		e := inst.ests[round][a]
		top = max(top, e.ts)
		if e.ready = e.ready || m.ready(inst, e.val); !e.ready {
			continue
		}
		ready++
		if best == nil || e.ts > best.ts {
			best = e
		}
	}
	// CT wants the highest timestamp of SOME majority of estimates: of
	// all that arrived, if no unready one outranks the pick, else of the
	// ready ones once they are a majority (so an estimate that never
	// becomes ready cannot block the round).
	if best == nil || (best.ts < top && ready < m.majority()) {
		return
	}
	inst.proposed[round] = true
	inst.proposals[round] = best.val
	w := m.header(msgPropose, inst.id, round, len(best.val)).Raw(best.val)
	valueBytesSent.Add(uint64(len(best.val) * len(m.Stk.Others())))
	for _, p := range m.peers {
		m.send(p, w)
	}
}

// maybeDecide checks the majority-ack condition of a round this process
// coordinated and broadcasts the decision, once per instance: acks keep
// arriving between the majority and the broadcast looping back.
func (m *Module) maybeDecide(inst *instance, round uint64) {
	if inst.decSent || !inst.proposed[round] || len(inst.acks[round]) < m.majority() {
		return
	}
	// The value is locked at a majority: decide and disseminate.
	inst.decSent = true
	val := inst.proposals[round]
	valueBytesSent.Add(uint64(len(val) * len(m.Stk.Others())))
	w := wire.NewWriter(len(val) + 24)
	w.Uvarint(inst.id.Group).Uvarint(inst.id.Seq).Raw(val)
	m.Stk.Call(rbcast.Service, rbcast.Broadcast{Channel: m.cfg.DecChannel, Data: w.Bytes()})
}

// header starts a round message sized for its header and n value bytes.
func (m *Module) header(t byte, id InstanceID, round uint64, n int) *wire.Writer {
	w := wire.NewWriter(32 + n)
	w.Byte(t).Uvarint(id.Group).Uvarint(id.Seq).Uvarint(round)
	return w
}

// send hands one round message to RP2P.
func (m *Module) send(to kernel.Addr, w *wire.Writer) {
	m.Stk.Call(rp2p.Service, rp2p.Send{To: to, Channel: m.cfg.Channel, Data: w.Bytes()})
}

func (m *Module) onRecv(rv rp2p.Recv) {
	r := wire.NewReader(rv.Data)
	t := r.Byte()
	id := InstanceID{Group: r.Uvarint(), Seq: r.Uvarint()}
	round := r.Uvarint()
	if r.Err() != nil || t > msgRound {
		return
	}
	if _, done := m.decisions[id]; done {
		return // stale traffic for a decided instance
	}
	inst := m.inst(id)
	inst.seen = max(inst.seen, round) // its sender entered that round
	switch t {
	case msgEst:
		ts := r.Uvarint()
		val := r.Rest()
		if r.Err() != nil {
			return
		}
		if inst.ests[round] == nil {
			inst.ests[round] = make(map[kernel.Addr]*estimate)
		}
		inst.ests[round][rv.From] = &estimate{ts: ts, val: val}
	case msgPropose:
		val := r.Rest()
		if r.Err() != nil {
			return
		}
		if _, dup := inst.proposals[round]; !dup {
			inst.proposals[round] = val
		}
	case msgAck:
		if inst.acks[round] == nil {
			inst.acks[round] = make(map[kernel.Addr]bool)
		}
		inst.acks[round][rv.From] = true
		m.maybeDecide(inst, round)
		return
	}
	if t == msgEst {
		m.coordPhase2(inst, round)
	}
	if inst.started {
		m.advance(inst)
	}
}

// onDecision handles the reliable broadcast of a decision.
func (m *Module) onDecision(d rbcast.Deliver) {
	r := wire.NewReader(d.Data)
	id := InstanceID{Group: r.Uvarint(), Seq: r.Uvarint()}
	val := r.Rest()
	if r.Err() != nil {
		return
	}
	if _, dup := m.decisions[id]; dup {
		return
	}
	m.decisions[id] = val
	seqs := m.groupSeqs[id.Group]
	pos := sort.Search(len(seqs), func(i int) bool { return seqs[i] >= id.Seq })
	seqs = append(seqs, 0)
	copy(seqs[pos+1:], seqs[pos:])
	seqs[pos] = id.Seq
	m.groupSeqs[id.Group] = seqs
	delete(m.instances, id) // retire live state; the cache remains
	m.indicate(Decide{ID: id, Value: val})
}

func (m *Module) indicate(d Decide) {
	if l, ok := m.listeners[d.ID.Group]; ok {
		l.Handler(d)
	}
}
