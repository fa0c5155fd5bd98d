// Package core implements the paper's primary contribution: dynamic
// protocol update (DPU) of atomic broadcast by a replacement module
// (Repl) that adds a level of indirection between service callers and
// the protocol providing the service (Section 4), plus the replacement
// algorithm of Section 5 (Algorithm 1).
//
// Structure (Figure 3): applications and dependent protocols (e.g.
// group membership) call the public "abcast" service, which is provided
// by Repl. Repl intercepts every call and every response: calls are
// wrapped in a replacement header and forwarded to the inner
// "abcast/impl" service; inner deliveries are unwrapped, filtered and
// re-indicated upward. Protocol modules are never aware that a
// replacement takes place, and the algorithm depends only on the
// *specification* of atomic broadcast, never on an implementation.
//
// Algorithm 1 (per stack):
//
//	rABcast(m):            undelivered ∪= {m}; ABcast(nil, sn, m)
//	changeABcast(prot):    ABcast(newABcast, sn, prot)
//	Adeliver(newABcast, sn', prot), sn' = sn:
//	    sn++; unbind current module; create_module(prot); bind it;
//	    reissue every m ∈ undelivered with the new sn
//	Adeliver(nil, sn', m): if sn' = sn { undelivered \= {m}; rAdeliver(m) }
//
// The sn filter on nil messages is the paper's line 18; we apply the
// same filter to newABcast messages so that two changes racing in the
// same epoch resolve identically on every stack (the first in the old
// protocol's total order wins; a stale change is discarded and, when
// this stack initiated it, transparently retried in the new epoch).
//
// The old module is unbound but NOT removed — the paper's model lets an
// unbound module keep responding — so the old protocol's stream keeps
// delivering (and being filtered) until it drains; the module is retired
// after a configurable grace period.
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/abcast"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// deliveryCounter counts totally-ordered deliveries indicated by the
// replacement layer (batch payloads counted individually). Its
// windowed rate is the throughput signal the adaptation layer samples.
var deliveryCounter = metrics.NewCounter("core.deliveries")

// ErrUnknownProtocol is returned (wrapped) through ChangeProtocol.Reply
// when the requested implementation name is not in the registry.
var ErrUnknownProtocol = errors.New("core: unknown abcast implementation")

// ErrEvicted is returned through ChangeView.Reply and
// ChangeProtocol.Reply when this stack leaves the view with the request
// still unordered, and for every request made after that. Whatever the
// stack had broadcast is discarded by the survivors' epoch filter and
// nobody re-proposes it, so the request can never commit: the caller
// decides whether to issue it again from a member.
var ErrEvicted = errors.New("core: stack evicted from the view")

// Service is the public atomic-broadcast service provided by the
// replacement module. Applications and dependent protocols call and
// subscribe to this service and never touch abcast.ServiceImpl.
const Service kernel.ServiceID = "abcast"

// Protocol is the protocol name of the replacement module.
const Protocol = "dpu/repl"

// Broadcast is the rABcast request: atomically broadcast Data.
type Broadcast struct {
	Data []byte
}

// ChangeProtocol is the changeABcast request: replace the running
// atomic-broadcast implementation, on every stack, by the named one.
type ChangeProtocol struct {
	Protocol string
	// Reply, when non-nil, is invoked on the stack's executor once the
	// replacement requested by THIS call completes locally (carrying the
	// resulting Switched event) or fails. The request is validated
	// against the implementation registry before it is broadcast, so an
	// unknown name fails immediately with ErrUnknownProtocol. A request
	// that loses the race against a concurrent change is transparently
	// retried (Config.RetryLostChange) and replies when the retry wins;
	// with retries disabled it replies with an error.
	Reply func(ChangeReply)
}

// ChangeReply reports the outcome of a tracked ChangeProtocol request.
type ChangeReply struct {
	Ev  Switched
	Err error
}

// EpochWaitReq parks until this stack's seqNumber reaches Epoch, then
// replies with the stack's status on the executor. A request for an
// already-reached epoch replies immediately. This is the observable
// switch-completion barrier Algorithm 1 defines but the original API
// hid: "the replacement completes on a machine when seqNumber
// advances".
type EpochWaitReq struct {
	Epoch uint64
	Reply func(Status)
	// Done, when non-nil, marks the request as abandoned once closed
	// (typically a context's Done channel): the parked waiter is pruned
	// on later switch/wait activity instead of being retained forever.
	Done <-chan struct{}
}

// Deliver is the rAdeliver indication: Data is delivered in the same
// total order on every stack, across protocol replacements.
type Deliver struct {
	Origin kernel.Addr
	Data   []byte
}

// Switched is indicated (in delivery order) when this stack completes a
// replacement: the moment line 10-16 of Algorithm 1 ran locally.
type Switched struct {
	// Sn is the new value of seqNumber (the new epoch).
	Sn uint64
	// Protocol is the implementation now bound.
	Protocol string
	// At is when the switch completed on this stack.
	At time.Time
	// Reissued counts undelivered messages re-broadcast through the new
	// protocol (Algorithm 1, lines 15-16).
	Reissued int
}

// StatusReq asks for a snapshot of the replacement layer's state,
// delivered through Reply on the executor.
type StatusReq struct {
	Reply func(Status)
}

// Status describes the replacement layer on one stack.
type Status struct {
	Sn          uint64
	Protocol    string
	Undelivered int
	// ViewID and Members describe the installed membership view; the
	// EpochWaitReq barrier therefore doubles as a view barrier (a view
	// change advances Sn).
	ViewID  uint64
	Members []kernel.Addr
}

// Config configures the replacement module.
type Config struct {
	// InitialProtocol names the implementation installed at boot (epoch
	// InitialEpoch).
	InitialProtocol string
	// InitialEpoch is the replacement layer's seqNumber at boot. Founders
	// start at 0; a node joining a running group boots at the epoch its
	// join committed in, so its first implementation instance plugs
	// straight into the post-join epoch's traffic.
	InitialEpoch uint64
	// InitialViewID is the installed-view count at boot (see ViewChange).
	InitialViewID uint64
	// InitialNextID seeds the deterministic member-id allocator; it is
	// raised to max(peer)+1 automatically. Joiners receive the group's
	// current value through the join handshake.
	InitialNextID kernel.Addr
	// Endpoints maps the boot membership to transport endpoints, where
	// known; view changes keep it current and feed it to the transport's
	// routing state.
	Endpoints map[kernel.Addr]string
	// Impls resolves implementation names (abcast.StandardRegistry plus
	// any custom protocols).
	Impls *abcast.Registry
	// Grace is how long an unbound (old) module keeps running before
	// being removed from the stack, so its stream can drain.
	Grace time.Duration
	// RetryLostChange re-issues this stack's own change request when it
	// lost the race against a concurrent change in the same epoch.
	RetryLostChange bool
	// BatchDelay, when > 0, enables sender-side batching: Broadcast
	// payloads handed to this stack in one executor pass accumulate in
	// one batch, which goes out as ONE inner atomic broadcast when the
	// pass ends (or earlier, once it reaches BatchBytes), so one
	// dissemination, one consensus slot and one ack cycle amortize over
	// many application messages. A batch never waits for the delay: the
	// value only turns batching on. Delivery unpacks the batch in order,
	// so the public stream is unchanged. Receivers always understand both
	// framings, so the knob is per-stack.
	BatchDelay time.Duration
	// BatchBytes closes a batch mid-pass once its packed payloads reach
	// this size (default 32 KiB); a value > 0 alone enables batching.
	BatchBytes int
}

func (c Config) withDefaults() Config {
	if c.InitialProtocol == "" {
		c.InitialProtocol = abcast.ProtocolCT
	}
	if c.Impls == nil {
		c.Impls = abcast.StandardRegistry()
	}
	if c.Grace <= 0 {
		c.Grace = 500 * time.Millisecond
	}
	if c.BatchDelay > 0 && c.BatchBytes <= 0 {
		c.BatchBytes = 32 << 10
	}
	// Cap the batch so that, with the abcast payload frame and rp2p/udp/
	// transport headers on top, one batch always fits a real UDP
	// datagram (transport.MaxDatagram) — an oversized record would be
	// silently unsendable over real sockets.
	const maxBatchBytesCap = 48 << 10
	if c.BatchBytes > maxBatchBytesCap {
		c.BatchBytes = maxBatchBytesCap
	}
	return c
}

const (
	tagNil   byte = 0 // ordinary rABcast message
	tagNew   byte = 1 // replacement request
	tagBatch byte = 2 // packed batch of rABcast messages (sender-side batching)
	tagView  byte = 3 // membership change (view-driven epoch bump; see view.go)
)

type msgID struct {
	origin kernel.Addr
	seq    uint64
}

// pendingSet is the ordered undelivered set: insertion order is the
// reissue order; removal is O(1) with lazy compaction.
type pendingSet struct {
	order []msgID
	data  map[msgID][]byte
}

func newPendingSet() *pendingSet {
	return &pendingSet{data: make(map[msgID][]byte)}
}

func (s *pendingSet) add(id msgID, data []byte) {
	if _, dup := s.data[id]; dup {
		return
	}
	s.data[id] = data
	s.order = append(s.order, id)
}

func (s *pendingSet) remove(id msgID) bool {
	if _, ok := s.data[id]; !ok {
		return false
	}
	delete(s.data, id)
	if len(s.order) > 2*len(s.data) && len(s.order) > 64 {
		kept := s.order[:0]
		for _, d := range s.order {
			if _, ok := s.data[d]; ok {
				kept = append(kept, d)
			}
		}
		s.order = kept
	}
	return true
}

func (s *pendingSet) len() int { return len(s.data) }

// each visits live entries in insertion order.
func (s *pendingSet) each(fn func(id msgID, data []byte)) {
	for _, id := range s.order {
		if d, ok := s.data[id]; ok {
			fn(id, d)
		}
	}
}

// epochWaiter is one parked EpochWaitReq.
type epochWaiter struct {
	epoch uint64
	reply func(Status)
	done  <-chan struct{}
}

// abandoned reports whether the waiter's requester has given up.
func (w epochWaiter) abandoned() bool {
	if w.done == nil {
		return false
	}
	select {
	case <-w.done:
		return true
	default:
		return false
	}
}

// Repl is the replacement module (Algorithm 1).
type Repl struct {
	kernel.Base
	cfg Config

	sn          uint64
	mseq        uint64
	undelivered *pendingSet
	cur         kernel.Module
	curName     string

	// changeSeq numbers this stack's own change requests so a completed
	// switch can be correlated back to the call that asked for it (the
	// request id travels in the tagNew/tagView header, initiator-scoped).
	changeSeq      uint64
	pendingChanges map[uint64]func(ChangeReply)
	pendingViews   map[uint64]func(ViewReply)
	epochWaiters   []epochWaiter

	// view is the ordered membership state (see view.go); evicted is set
	// once this stack has applied its own removal from it.
	view    viewState
	evicted bool

	// Sender-side batching state (Config.BatchBytes > 0): payloads
	// accumulate as length-prefixed records in batch until the pass that
	// opened it ends; unflush is non-nil while its flusher is armed.
	batch   *wire.Writer
	unflush func()
}

// Factory returns the kernel factory for the replacement module. The
// initial implementation's substrate requirements are resolved in Start
// through the stack's registry (create_module recursion), so Requires
// here only lists what every implementation path needs transitively.
func Factory(cfg Config) kernel.Factory {
	cfg = cfg.withDefaults()
	return kernel.Factory{
		Protocol: Protocol,
		Provides: []kernel.ServiceID{Service},
		New: func(st *kernel.Stack) kernel.Module {
			m := &Repl{
				Base:           kernel.NewBase(st, Protocol),
				cfg:            cfg,
				sn:             cfg.InitialEpoch,
				undelivered:    newPendingSet(),
				pendingChanges: make(map[uint64]func(ChangeReply)),
				pendingViews:   make(map[uint64]func(ViewReply)),
			}
			m.initViewState()
			return m
		},
	}
}

// Start subscribes to the inner service and installs the initial
// implementation (epoch 0).
func (m *Repl) Start() {
	m.Stk.Subscribe(abcast.ServiceImpl, m)
	if err := m.install(m.cfg.InitialProtocol); err != nil {
		m.Stk.Logf("repl: installing %q: %v", m.cfg.InitialProtocol, err)
	}
}

// Stop retires the current implementation and detaches.
func (m *Repl) Stop() {
	if m.unflush != nil {
		m.unflush()
	}
	m.Stk.Unsubscribe(abcast.ServiceImpl, m)
	if m.cur != nil {
		cur := m.cur
		m.cur = nil
		m.Stk.RemoveModule(cur.ID())
	}
}

// install is create_module(prot) (Algorithm 1, lines 22-28): construct
// the implementation for the current epoch, add it to the stack, bind
// it to the inner service (flushing calls parked during the unbound
// window), ensure its required services exist, and start it.
func (m *Repl) install(name string) error {
	im, ok := m.cfg.Impls.Lookup(name)
	if !ok {
		return fmt.Errorf("core: unknown abcast implementation %q", name)
	}
	for _, svc := range im.Requires {
		if err := m.Stk.EnsureService(svc); err != nil {
			return fmt.Errorf("core: ensuring %q for %q: %w", svc, name, err)
		}
	}
	mod := im.New(m.Stk, m.sn)
	if err := m.Stk.AddModule(mod); err != nil {
		return err
	}
	if err := m.Stk.Bind(abcast.ServiceImpl, mod); err != nil {
		m.Stk.RemoveModule(mod.ID())
		return err
	}
	mod.Start()
	m.cur = mod
	m.curName = name
	return nil
}

// HandleRequest processes Broadcast (rABcast), ChangeProtocol
// (changeABcast), StatusReq and EpochWaitReq.
func (m *Repl) HandleRequest(_ kernel.ServiceID, req kernel.Request) {
	switch r := req.(type) {
	case Broadcast:
		m.rABcast(r.Data)
	case ChangeProtocol:
		m.requestChange(r)
	case ChangeView:
		m.requestView(r)
	case StatusReq:
		if r.Reply != nil {
			r.Reply(m.status())
		}
	case EpochWaitReq:
		if r.Reply == nil {
			return
		}
		if m.sn >= r.Epoch {
			r.Reply(m.status())
			return
		}
		// Prune abandoned waiters before parking a new one, so a caller
		// polling for an epoch that never comes cannot grow the slice
		// without bound.
		m.pruneEpochWaiters()
		m.epochWaiters = append(m.epochWaiters, epochWaiter{epoch: r.Epoch, reply: r.Reply, done: r.Done})
	}
}

func (m *Repl) status() Status {
	return Status{
		Sn: m.sn, Protocol: m.curName, Undelivered: m.undelivered.len(),
		ViewID: m.view.seq, Members: m.snapshotMembers(),
	}
}

// requestChange validates and tracks a local change request, then
// broadcasts it (changeABcast). Unknown names fail before anything is
// sent, so a typo can never circulate through the group.
func (m *Repl) requestChange(r ChangeProtocol) {
	var err error
	if m.evicted {
		err = ErrEvicted
	} else if _, known := m.cfg.Impls.Lookup(r.Protocol); !known {
		err = fmt.Errorf("%w %q", ErrUnknownProtocol, r.Protocol)
	}
	if err != nil {
		if r.Reply != nil {
			r.Reply(ChangeReply{Err: err})
		} else {
			m.Stk.Logf("repl: %v", err)
		}
		return
	}
	m.changeSeq++
	if r.Reply != nil {
		m.pendingChanges[m.changeSeq] = r.Reply
	}
	m.changeABcast(r.Protocol, m.changeSeq)
}

// rABcast: lines 7-9 of Algorithm 1. With batching enabled the payload
// joins the open batch instead of going out on its own; the batch as a
// whole then follows the exact same undelivered/reissue lifecycle as a
// single message would.
func (m *Repl) rABcast(data []byte) {
	if m.cfg.BatchBytes > 0 {
		m.batchAppend(data)
		return
	}
	m.mseq++
	id := msgID{origin: m.Stk.Addr(), seq: m.mseq}
	m.undelivered.add(id, data)
	m.innerBroadcast(m.encodeNil(id, data))
}

// batchAppend adds one payload to the open batch, opening it (and
// arming the end-of-pass flush) if needed, and flushes on the size
// threshold.
func (m *Repl) batchAppend(data []byte) {
	if m.batch == nil {
		m.batch = wire.NewWriter(m.cfg.BatchBytes + 256)
		if m.unflush == nil {
			m.unflush = m.Stk.RegisterFlusher(m.passEnd)
		}
	}
	m.batch.BytesField(data)
	if m.batch.Len() >= m.cfg.BatchBytes {
		m.flushBatch()
	}
}

// passEnd runs once, as a stack flusher, at the end of the executor
// pass that opened a batch. The batch goes out through the queue
// (Stk.Call, not CallSync): the inner module's own flusher has already
// run in this pass, and it sends what the batch becomes in the next.
func (m *Repl) passEnd() {
	m.unflush()
	m.unflush = nil
	m.flushBatch()
}

// flushBatch closes the open batch: it becomes one undelivered message
// (so a switch reissues it, once, through the new epoch) and goes out
// as one inner broadcast.
func (m *Repl) flushBatch() {
	if id, blob, ok := m.closeBatch(); ok {
		m.innerBroadcast(m.encodeBatch(id, blob))
	}
}

func (m *Repl) closeBatch() (msgID, []byte, bool) {
	if m.batch == nil {
		return msgID{}, nil, false
	}
	blob := m.batch.Bytes()
	m.batch = nil
	m.mseq++
	id := msgID{origin: m.Stk.Addr(), seq: m.mseq}
	m.undelivered.add(id, blob)
	return id, blob, true
}

// changeABcast: lines 5-6 of Algorithm 1. reqID is the initiator-local
// request number, echoed back in the delivered change so the completed
// switch can be matched to the originating ChangeProtocol call.
func (m *Repl) changeABcast(name string, reqID uint64) {
	w := wire.NewWriter(len(name) + 24)
	w.Byte(tagNew).Uvarint(m.sn).Uvarint(uint64(m.Stk.Addr())).Uvarint(reqID).String(name)
	m.innerBroadcast(w.Bytes())
}

func (m *Repl) encodeNil(id msgID, data []byte) []byte {
	w := wire.NewWriter(len(data) + 24)
	w.Byte(tagNil).Uvarint(m.sn).Uvarint(uint64(id.origin)).Uvarint(id.seq).Raw(data)
	return w.Bytes()
}

// encodeBatch frames a packed record blob; the records were encoded
// once when appended, so the payloads cross this layer with one copy.
func (m *Repl) encodeBatch(id msgID, blob []byte) []byte {
	w := wire.NewWriter(len(blob) + 24)
	w.Byte(tagBatch).Uvarint(m.sn).Uvarint(uint64(id.origin)).Uvarint(id.seq).Raw(blob)
	return w.Bytes()
}

// encodePending encodes one undelivered entry for (re)broadcast. With
// batching enabled every entry is a packed batch; without it, a plain
// message.
func (m *Repl) encodePending(id msgID, data []byte) []byte {
	if m.cfg.BatchBytes > 0 {
		return m.encodeBatch(id, data)
	}
	return m.encodeNil(id, data)
}

func (m *Repl) innerBroadcast(encoded []byte) {
	m.Stk.Call(abcast.ServiceImpl, abcast.Broadcast{Data: encoded})
}

// HandleIndication processes Adeliver events from the inner service —
// from the bound module or from an unbound old module still draining.
func (m *Repl) HandleIndication(svc kernel.ServiceID, ind kernel.Indication) {
	if svc != abcast.ServiceImpl {
		return
	}
	d, ok := ind.(abcast.Deliver)
	if !ok {
		return
	}
	r := wire.NewReader(d.Data)
	tag := r.Byte()
	sn := r.Uvarint()
	switch tag {
	case tagNew:
		initiator := kernel.Addr(r.Uvarint())
		reqID := r.Uvarint()
		name := r.String()
		if r.Err() != nil {
			return
		}
		m.onChange(sn, initiator, reqID, name)
	case tagNil:
		id := msgID{origin: kernel.Addr(r.Uvarint()), seq: r.Uvarint()}
		data := r.Rest()
		if r.Err() != nil {
			return
		}
		m.onDeliver(sn, id, data)
	case tagBatch:
		id := msgID{origin: kernel.Addr(r.Uvarint()), seq: r.Uvarint()}
		blob := r.Rest()
		if r.Err() != nil {
			return
		}
		m.onDeliverBatch(sn, id, blob)
	case tagView:
		initiator := kernel.Addr(r.Uvarint())
		reqID := r.Uvarint()
		op := ViewOp(r.Byte())
		assign := r.Byte() != 0
		member := kernel.Addr(r.Uvarint())
		endpoint := r.String()
		if r.Err() != nil {
			return
		}
		m.onView(sn, initiator, reqID, op, assign, member, endpoint)
	}
}

// onDeliverBatch is onDeliver for a packed batch: the batch follows
// lines 17-21 of Algorithm 1 as ONE message (sn filter, undelivered
// removal), then unpacks into per-payload rAdeliver indications in
// packing order.
func (m *Repl) onDeliverBatch(sn uint64, id msgID, blob []byte) {
	if sn != m.sn {
		return // stale protocol's delivery, discarded
	}
	if id.origin == m.Stk.Addr() {
		m.undelivered.remove(id)
	}
	r := wire.NewReader(blob)
	for r.Err() == nil && r.Remaining() > 0 {
		rec := r.BytesField()
		if r.Err() != nil {
			return
		}
		deliveryCounter.Add(1)
		m.Stk.Indicate(Service, Deliver{Origin: id.origin, Data: rec})
	}
}

// failChange resolves a tracked local change request with an error.
func (m *Repl) failChange(reqID uint64, err error) {
	reply, ok := m.pendingChanges[reqID]
	if !ok {
		return
	}
	delete(m.pendingChanges, reqID)
	reply(ChangeReply{Err: err})
}

// pruneEpochWaiters drops waiters whose requester has abandoned them.
func (m *Repl) pruneEpochWaiters() {
	kept := m.epochWaiters[:0]
	for _, w := range m.epochWaiters {
		if !w.abandoned() {
			kept = append(kept, w)
		}
	}
	for i := len(kept); i < len(m.epochWaiters); i++ {
		m.epochWaiters[i] = epochWaiter{} // release retained closures
	}
	m.epochWaiters = kept
}

// flushEpochWaiters releases every parked EpochWaitReq whose target
// epoch has been reached and prunes abandoned ones.
func (m *Repl) flushEpochWaiters() {
	if len(m.epochWaiters) == 0 {
		return
	}
	kept := m.epochWaiters[:0]
	for _, w := range m.epochWaiters {
		if w.abandoned() {
			continue
		}
		if m.sn >= w.epoch {
			w.reply(m.status())
		} else {
			kept = append(kept, w)
		}
	}
	for i := len(kept); i < len(m.epochWaiters); i++ {
		m.epochWaiters[i] = epochWaiter{}
	}
	m.epochWaiters = kept
}

// onChange: lines 10-16 of Algorithm 1.
func (m *Repl) onChange(sn uint64, initiator kernel.Addr, reqID uint64, name string) {
	mine := initiator == m.Stk.Addr()
	if sn != m.sn {
		// A change that lost the race against another change in the same
		// epoch. Every stack discards it at the same point of the total
		// order. If we initiated it, optionally retry in the new epoch
		// (keeping the request id, so the eventual win still resolves the
		// originating call).
		if mine {
			if m.cfg.RetryLostChange {
				m.changeABcast(name, reqID)
			} else {
				m.failChange(reqID, fmt.Errorf("core: change to %q lost the race in epoch %d", name, sn))
			}
		}
		return
	}
	// Validate before mutating: an unknown implementation name is
	// discarded consistently on every stack (registries must agree
	// across the group) without advancing the epoch.
	if _, known := m.cfg.Impls.Lookup(name); !known {
		m.Stk.Logf("repl: discarding change to unknown implementation %q", name)
		if mine {
			m.failChange(reqID, fmt.Errorf("%w %q", ErrUnknownProtocol, name))
		}
		return
	}
	// Line 11: seqNumber++.
	m.sn++
	// Line 12: unbind the current module. It stays in the stack and
	// keeps delivering its (now stale, sn-filtered) stream.
	old := m.cur
	m.Stk.Unbind(abcast.ServiceImpl)
	// Lines 13-14 and 22-28: create_module(prot) and bind.
	if err := m.install(name); err != nil {
		// Substrate wiring failed (configuration error): restore the old
		// binding so the service keeps operating.
		m.Stk.Logf("repl: change to %q failed: %v; keeping %q", name, err, m.curName)
		m.sn--
		if old != nil {
			if err := m.Stk.Bind(abcast.ServiceImpl, old); err != nil {
				m.Stk.Logf("repl: rebind failed: %v", err)
			}
			m.cur = old
		}
		if mine {
			m.failChange(reqID, fmt.Errorf("core: change to %q failed: %w", name, err))
		}
		return
	}
	// A batch still open at the switch joins the undelivered set now —
	// without a broadcast of its own, since the reissue below sends it —
	// so it crosses the epoch boundary exactly once. (On the
	// install-failure path above the batch stays open instead, and the
	// end of this pass sends it through the retained epoch.)
	m.closeBatch()
	// Lines 15-16: reissue undelivered messages through the new module.
	// An undelivered batch is a single entry here: it is reissued
	// exactly once, as a whole, through the new epoch.
	reissued := 0
	m.undelivered.each(func(id msgID, data []byte) {
		m.innerBroadcast(m.encodePending(id, data))
		reissued++
	})
	// Retire the old module once its stream has had time to drain.
	if old != nil {
		oldID := old.ID()
		m.Stk.After(m.cfg.Grace, func() { m.Stk.RemoveModule(oldID) })
	}
	ev := Switched{Sn: m.sn, Protocol: name, At: m.Stk.Now(), Reissued: reissued}
	if mine {
		if reply, ok := m.pendingChanges[reqID]; ok {
			delete(m.pendingChanges, reqID)
			reply(ChangeReply{Ev: ev})
		}
	}
	m.flushEpochWaiters()
	m.Stk.Indicate(Service, ev)
}

// onDeliver: lines 17-21 of Algorithm 1.
func (m *Repl) onDeliver(sn uint64, id msgID, data []byte) {
	if sn != m.sn {
		return // line 18: stale protocol's delivery, discarded
	}
	if id.origin == m.Stk.Addr() {
		m.undelivered.remove(id) // lines 19-20
	}
	deliveryCounter.Add(1)
	m.Stk.Indicate(Service, Deliver{Origin: id.origin, Data: data}) // line 21
}
