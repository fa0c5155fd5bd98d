// View changes: the replacement module is also the commit point for
// membership. A view operation (join / leave) travels through the inner
// atomic broadcast with the same epoch filter as a protocol change
// (tagNew), so every stack applies it at the same position of the total
// order — and applying it IS a protocol switch: seqNumber advances, the
// current implementation is reinstalled over the new peer set
// (kernel.Stack.SetPeers reconfigures rbcast destinations, rp2p peer
// state, fd monitors, consensus quorums and transport routes), and
// undelivered messages are reissued through the new epoch. A node that
// joins therefore lands on a coherent cut: the epoch boundary created
// by its own join, where every implementation instance starts fresh.
package core

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/abcast"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// ViewOp is a membership operation kind.
type ViewOp byte

// Membership operation kinds.
const (
	// ViewJoin adds a member (optionally assigning a fresh id at the
	// commit point).
	ViewJoin ViewOp = 0
	// ViewLeave removes a member. A removed member that is still alive
	// observes its own eviction and stops participating.
	ViewLeave ViewOp = 1
)

// Membership counters, exported through the process-wide metrics
// registry.
var (
	viewsInstalledCounter = metrics.NewCounter("membership.views_installed")
	evictionsCounter      = metrics.NewCounter("membership.members_evicted")
)

// ChangeView requests a totally-ordered membership change. Like
// ChangeProtocol it is broadcast through the inner service and applied
// at its delivery point; unlike ChangeProtocol a request that loses the
// epoch race against a concurrent change is ALWAYS retried (the intent
// of a view operation is unconditional), terminating when the operation
// is applied or found to be a no-op against the then-current view.
type ChangeView struct {
	Op ViewOp
	// Member is the operand address. Ignored for Op == ViewJoin with
	// Assign set.
	Member kernel.Addr
	// Assign makes a join allocate a fresh member id deterministically
	// at the commit point (all stacks compute the same id), instead of
	// re-admitting a caller-chosen address.
	Assign bool
	// Endpoint is the transport endpoint of a joining member, admitted
	// into every stack's routing state when the view installs ("" over
	// implicit-routing fabrics).
	Endpoint string
	// Reply, when non-nil, is invoked on the executor once the change
	// requested by THIS call commits locally (possibly as a no-op) or
	// fails validation.
	Reply func(ViewReply)
}

// ViewReply reports the outcome of a tracked ChangeView request.
type ViewReply struct {
	Ev  ViewChange
	Err error
}

// ViewChange is indicated on Service (in delivery order) when a
// membership change commits on this stack; it is also the payload of
// ViewReply, where NoOp marks a request that matched the current view.
// Slices and maps are snapshots owned by the receiver's executor pass;
// GM republishes them upward as a gm.NewView.
type ViewChange struct {
	// ViewID counts installed views (0 = the founding view).
	ViewID uint64
	// Sn is the epoch after the change: every effective view change
	// advances the replacement layer's seqNumber.
	Sn uint64
	// Op and Member describe the applied operation.
	Op     ViewOp
	Member kernel.Addr
	// Members is the resulting membership (sorted).
	Members []kernel.Addr
	// Endpoints maps members to transport endpoints, where known.
	Endpoints map[kernel.Addr]string
	// Protocol is the implementation bound in the new epoch.
	Protocol string
	// NextID is the next member id a fresh join would be assigned —
	// part of the ordered state, so a joiner boots with the same
	// allocator position as the founders.
	NextID kernel.Addr
	// NoOp marks a ViewReply for an operation that did not change the
	// view (joining a present member, removing an absent one).
	NoOp bool
	// At is when the change committed on this stack.
	At time.Time
}

// viewState is the ordered membership state the replacement module
// carries alongside Algorithm 1's seqNumber. Every stack mutates it
// only at delivery points of the total order, so it is identical on
// every member at the same position of the stream.
type viewState struct {
	seq       uint64 // installed view count
	nextID    kernel.Addr
	endpoints map[kernel.Addr]string
}

// initViewState seeds the ordered membership state from the boot
// configuration (founders: zero values; joiners: the cut served by
// their sponsor).
func (m *Repl) initViewState() {
	m.view.seq = m.cfg.InitialViewID
	m.view.endpoints = make(map[kernel.Addr]string, len(m.cfg.Endpoints))
	for p, ep := range m.cfg.Endpoints {
		m.view.endpoints[p] = ep
	}
	m.view.nextID = m.cfg.InitialNextID
	for _, p := range m.Stk.Peers() {
		if p >= m.view.nextID {
			m.view.nextID = p + 1
		}
	}
}

// requestView validates and tracks a local view-change request, then
// broadcasts it through the inner service.
func (m *Repl) requestView(r ChangeView) {
	fail := func(err error) {
		if r.Reply != nil {
			r.Reply(ViewReply{Err: err})
		} else {
			m.Stk.Logf("repl: %v", err)
		}
	}
	switch {
	case m.evicted:
		fail(ErrEvicted)
		return
	case r.Op != ViewJoin && r.Op != ViewLeave:
		fail(fmt.Errorf("core: unknown view operation %d", r.Op))
		return
	case r.Op == ViewLeave && r.Assign:
		fail(fmt.Errorf("core: leave cannot assign a member id"))
		return
	case r.Member < 0 && !r.Assign:
		fail(fmt.Errorf("core: negative member address %d", r.Member))
		return
	}
	m.changeSeq++
	if r.Reply != nil {
		m.pendingViews[m.changeSeq] = r.Reply
	}
	m.viewABcast(r.Op, r.Assign, r.Member, r.Endpoint, m.changeSeq)
}

// viewABcast broadcasts one encoded view operation in the current
// epoch; the epoch filter at delivery makes the commit point exact.
func (m *Repl) viewABcast(op ViewOp, assign bool, member kernel.Addr, endpoint string, reqID uint64) {
	var aFlag byte
	if assign {
		aFlag = 1
	}
	w := wire.NewWriter(len(endpoint) + 32)
	w.Byte(tagView).Uvarint(m.sn).Uvarint(uint64(m.Stk.Addr())).Uvarint(reqID).
		Byte(byte(op)).Byte(aFlag).Uvarint(uint64(member)).String(endpoint)
	m.innerBroadcast(w.Bytes())
}

// failView resolves a tracked local view request with an error.
func (m *Repl) failView(reqID uint64, err error) {
	reply, ok := m.pendingViews[reqID]
	if !ok {
		return
	}
	delete(m.pendingViews, reqID)
	reply(ViewReply{Err: err})
}

// failPending answers every tracked view and protocol-change request
// with err, oldest first. Called on self-eviction: whatever this stack
// broadcast in the old epoch the survivors discard, only the initiator
// re-proposes a request that lost the epoch race, and this initiator
// has no inner service left — without this no Reply would ever fire.
func (m *Repl) failPending(err error) {
	for _, reqID := range slices.Sorted(maps.Keys(m.pendingViews)) {
		m.failView(reqID, err)
	}
	for _, reqID := range slices.Sorted(maps.Keys(m.pendingChanges)) {
		m.failChange(reqID, err)
	}
}

// snapshotMembers returns a sorted copy of the current membership.
func (m *Repl) snapshotMembers() []kernel.Addr {
	return append([]kernel.Addr(nil), m.Stk.Peers()...)
}

// snapshotEndpoints copies the endpoint map; the copy is what crosses
// into kernel.SetPeers and indications, so the ordered state stays
// private to the module.
func (m *Repl) snapshotEndpoints() map[kernel.Addr]string {
	out := make(map[kernel.Addr]string, len(m.view.endpoints))
	for p, ep := range m.view.endpoints {
		out[p] = ep
	}
	return out
}

// viewChangeEvent assembles the indication for the just-committed view.
func (m *Repl) viewChangeEvent(op ViewOp, member kernel.Addr, noOp bool) ViewChange {
	return ViewChange{
		ViewID:    m.view.seq,
		Sn:        m.sn,
		Op:        op,
		Member:    member,
		Members:   m.snapshotMembers(),
		Endpoints: m.snapshotEndpoints(),
		Protocol:  m.curName,
		NextID:    m.view.nextID,
		NoOp:      noOp,
		At:        m.Stk.Now(),
	}
}

// onView applies a delivered membership operation: the view-change
// analogue of onChange (Algorithm 1, lines 10-16), with the peer set
// swap in the middle.
func (m *Repl) onView(sn uint64, initiator kernel.Addr, reqID uint64, op ViewOp, assign bool, member kernel.Addr, endpoint string) {
	mine := initiator == m.Stk.Addr()
	if sn != m.sn {
		// Lost the epoch race against a concurrent change. The operation's
		// intent stands regardless of the epoch it commits in, so the
		// initiator always rebroadcasts into the new epoch (keeping the
		// request id so the eventual commit resolves the original call).
		if mine {
			m.viewABcast(op, assign, member, endpoint, reqID)
		}
		return
	}
	members := m.snapshotMembers()
	contains := func(p kernel.Addr) bool {
		for _, q := range members {
			if q == p {
				return true
			}
		}
		return false
	}
	if assign {
		member = m.view.nextID
	}
	var next []kernel.Addr
	switch op {
	case ViewJoin:
		if contains(member) {
			if mine {
				m.resolveView(reqID, m.viewChangeEvent(op, member, true))
			}
			return
		}
		next = append(members, member)
	case ViewLeave:
		if !contains(member) {
			if mine {
				m.resolveView(reqID, m.viewChangeEvent(op, member, true))
			}
			return
		}
		next = members[:0:0]
		for _, q := range members {
			if q != member {
				next = append(next, q)
			}
		}
	default:
		m.Stk.Logf("repl: discarding unknown view operation %d", op)
		if mine {
			m.failView(reqID, fmt.Errorf("core: unknown view operation %d", op))
		}
		return
	}

	// Commit: mutate the ordered state, advance the epoch, swap the peer
	// set, reinstall the implementation over it and reissue undelivered
	// messages — a protocol switch whose "new protocol" is the same
	// implementation over a new membership.
	prevMembers := members
	prevNextID := m.view.nextID
	prevEndpoint, hadEndpoint := m.view.endpoints[member]
	m.view.seq++
	if op == ViewJoin {
		if endpoint != "" {
			m.view.endpoints[member] = endpoint
		}
		if member >= m.view.nextID {
			m.view.nextID = member + 1
		}
	} else {
		delete(m.view.endpoints, member)
	}
	m.sn++
	old := m.cur
	m.Stk.Unbind(abcast.ServiceImpl)
	m.Stk.SetPeers(next, m.snapshotEndpoints())

	if op == ViewLeave && member == m.Stk.Addr() {
		// Self-eviction: this stack is out of the group. Retire the inner
		// implementation and stop participating — the final ViewChange is
		// still indicated so observers (GM, the dpu layer) see the view
		// they were removed in before the stack is retired above us.
		m.cur = nil
		m.curName = ""
		if old != nil {
			m.Stk.RemoveModule(old.ID())
		}
		m.Stk.Logf("repl: evicted from the view at epoch %d", m.sn)
		evictionsCounter.Add(1)
		m.evicted = true
		ev := m.viewChangeEvent(op, member, false)
		if mine {
			m.resolveView(reqID, ev) // a self-requested departure still confirms
		}
		m.failPending(ErrEvicted)
		m.flushEpochWaiters()
		m.Stk.Indicate(Service, ev)
		return
	}

	if err := m.install(m.curName); err != nil {
		// Substrate wiring failed: roll the whole commit back — view
		// counter, id allocator and endpoint bookkeeping included — so
		// the service keeps operating on the old view.
		m.Stk.Logf("repl: view change failed: %v; keeping view %d", err, m.view.seq-1)
		m.view.seq--
		m.view.nextID = prevNextID
		if hadEndpoint {
			m.view.endpoints[member] = prevEndpoint
		} else {
			delete(m.view.endpoints, member)
		}
		m.sn--
		m.Stk.SetPeers(prevMembers, m.snapshotEndpoints())
		if old != nil {
			if err := m.Stk.Bind(abcast.ServiceImpl, old); err != nil {
				m.Stk.Logf("repl: rebind failed: %v", err)
			}
			m.cur = old
		}
		if mine {
			m.failView(reqID, fmt.Errorf("core: view change failed: %w", err))
		}
		return
	}
	m.closeBatchForReissue()
	reissued := 0
	m.undelivered.each(func(id msgID, data []byte) {
		m.innerBroadcast(m.encodePending(id, data))
		reissued++
	})
	if old != nil {
		oldID := old.ID()
		m.Stk.After(m.cfg.Grace, func() { m.Stk.RemoveModule(oldID) })
	}
	viewsInstalledCounter.Add(1)
	if op == ViewLeave {
		evictionsCounter.Add(1)
	}
	ev := m.viewChangeEvent(op, member, false)
	if mine {
		m.resolveView(reqID, ev)
	}
	m.flushEpochWaiters()
	m.Stk.Indicate(Service, ev)
	m.Stk.Indicate(Service, Switched{Sn: m.sn, Protocol: m.curName, At: ev.At, Reissued: reissued})
}

// resolveView completes a tracked local view request successfully.
func (m *Repl) resolveView(reqID uint64, ev ViewChange) {
	reply, ok := m.pendingViews[reqID]
	if !ok {
		return
	}
	delete(m.pendingViews, reqID)
	reply(ViewReply{Ev: ev})
}
