// Package gm implements the GM module of the paper's stack (Figure 4):
// a group membership service maintaining a consistent sequence of views
// among all group members. View changes are totally ordered by the
// *public* atomic broadcast service — the one provided by the
// replacement module — which makes GM the paper's example of a protocol
// that depends on the updated protocol and keeps providing service,
// unaware, while ABcast is replaced underneath it.
//
// GM is the policy layer: it validates join/leave requests, optionally
// converts failure-detector suspicions into proposed evictions
// (Config.AutoEvict), and publishes NewView indications. The mechanics
// — ordering the operation, bumping the epoch, swapping the peer set on
// every layer, reissuing undelivered messages — live in the replacement
// module (core.ChangeView), so a membership change reconfigures rbcast
// destinations, rp2p peer state, fd monitors, consensus quorums and
// transport routes at one point of the total order.
package gm

import (
	"sort"

	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/kernel"
	"repro/internal/metrics"
)

// Service is the group membership service.
const Service kernel.ServiceID = "gm"

// Protocol is the protocol name registered for this module.
const Protocol = "gm"

// autoEvictCounter counts fd suspicions GM turned into eviction
// proposals (ordered through ABcast; duplicates commit as no-ops).
var autoEvictCounter = metrics.NewCounter("membership.auto_evict_proposals")

// View is one membership epoch.
type View struct {
	// ID increases by one with every membership change.
	ID uint64
	// Members is the sorted member list.
	Members []kernel.Addr
}

// clone returns a deep copy of the view.
func (v View) clone() View {
	return View{ID: v.ID, Members: append([]kernel.Addr(nil), v.Members...)}
}

// Contains reports whether p is a member.
func (v View) Contains(p kernel.Addr) bool {
	for _, m := range v.Members {
		if m == p {
			return true
		}
	}
	return false
}

// Join requests adding a new member; the resulting view change is
// totally ordered against all other membership operations and protocol
// switches. The member's id is allocated deterministically at the
// commit point, fresh — ids are never reused — and reported through
// Reply.
type Join struct {
	// Endpoint is the joining node's transport endpoint, admitted into
	// every member's routing state when the view installs ("" over
	// implicit-routing fabrics such as simnet).
	Endpoint string
	// Reply, when non-nil, runs on the executor once the join commits
	// locally; it carries the sync cut a joiner boots from.
	Reply func(Result)
}

// Leave requests removing a member. The removed member, if alive,
// observes its own eviction and stops participating.
type Leave struct {
	P kernel.Addr
	// Reply, when non-nil, runs on the executor once the leave commits
	// locally.
	Reply func(Result)
}

// Result reports the commit of a Join or Leave: the installed view plus
// the coherent cut (epoch, protocol, endpoints, id-allocator position)
// a joining node needs to boot in sync with the group.
type Result struct {
	// View is the membership after the operation (the current one for a
	// no-op).
	View View
	// Member is the operand — for a Join, the id that was allocated at
	// the commit point.
	Member kernel.Addr
	// Epoch is the replacement layer's seqNumber after the operation;
	// a joiner's first implementation instance is scoped to it.
	Epoch uint64
	// Protocol is the atomic-broadcast implementation bound at Epoch.
	Protocol string
	// Endpoints maps members to transport endpoints, where known.
	Endpoints map[kernel.Addr]string
	// NextID is the id-allocator position after the operation.
	NextID kernel.Addr
	// NoOp marks an operation that matched the current view (removing
	// an absent member).
	NoOp bool
	// Err is non-nil when the operation failed validation or wiring, or
	// (core.ErrEvicted) when this stack was removed from the view before
	// the operation was ordered: it did not commit and nobody retries it.
	Err error
}

// ViewReq asks for the current view, delivered through Reply on the
// executor.
type ViewReq struct {
	Reply func(View)
}

// NewView is indicated on Service whenever a view is installed.
type NewView struct {
	View View
}

// Config tunes the membership module.
type Config struct {
	// AutoEvict proposes an eviction (ordered through ABcast, so every
	// survivor installs the identical view) whenever the failure
	// detector suspects a member. A false suspicion that commits still
	// yields a consistent view, but eviction is final for that member
	// id: the victim halts its participation and survivors discard its
	// connection state. A falsely evicted machine returns by joining
	// again under a fresh id (dpu.Cluster.AddNode / dpu.Join).
	AutoEvict bool
	// InitialViewID seeds the view counter; a joining node boots with
	// the value its sponsor reported so its view sequence lines up with
	// the founders'.
	InitialViewID uint64
}

// Module implements group membership.
type Module struct {
	kernel.Base
	cfg  Config
	view View

	// proposed tracks suspects this stack already proposed for eviction,
	// so a flapping detector does not spam the total order.
	proposed map[kernel.Addr]bool
}

// Factory returns the module factory with the default configuration.
// It requires the public abcast service (core.Service), not any
// particular implementation.
func Factory() kernel.Factory { return FactoryWith(Config{}) }

// FactoryWith returns the module factory for a configured GM (auto
// eviction, joiner view seeding).
func FactoryWith(cfg Config) kernel.Factory {
	requires := []kernel.ServiceID{core.Service}
	if cfg.AutoEvict {
		requires = append(requires, fd.Service)
	}
	return kernel.Factory{
		Protocol: Protocol,
		Provides: []kernel.ServiceID{Service},
		Requires: requires,
		New: func(st *kernel.Stack) kernel.Module {
			members := append([]kernel.Addr(nil), st.Peers()...)
			sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
			return &Module{
				Base:     kernel.NewBase(st, Protocol),
				cfg:      cfg,
				view:     View{ID: cfg.InitialViewID, Members: members},
				proposed: make(map[kernel.Addr]bool),
			}
		},
	}
}

// Start subscribes to the public abcast service (view commits) and,
// with AutoEvict, to the failure detector.
func (m *Module) Start() {
	m.Stk.Subscribe(core.Service, m)
	if m.cfg.AutoEvict {
		m.Stk.Subscribe(fd.Service, m)
	}
}

// Stop unsubscribes.
func (m *Module) Stop() {
	m.Stk.Unsubscribe(core.Service, m)
	if m.cfg.AutoEvict {
		m.Stk.Unsubscribe(fd.Service, m)
	}
}

// HandleRequest processes Join, Leave and ViewReq.
func (m *Module) HandleRequest(_ kernel.ServiceID, req kernel.Request) {
	switch r := req.(type) {
	case Join:
		m.Stk.Call(core.Service, core.ChangeView{
			Op: core.ViewJoin, Assign: true,
			Endpoint: r.Endpoint, Reply: adaptReply(r.Reply),
		})
	case Leave:
		m.Stk.Call(core.Service, core.ChangeView{
			Op: core.ViewLeave, Member: r.P, Reply: adaptReply(r.Reply),
		})
	case ViewReq:
		if r.Reply != nil {
			r.Reply(m.view.clone())
		}
	}
}

// adaptReply converts a core.ViewReply into the gm.Result surface.
func adaptReply(reply func(Result)) func(core.ViewReply) {
	if reply == nil {
		return nil
	}
	return func(vr core.ViewReply) {
		if vr.Err != nil {
			reply(Result{Err: vr.Err})
			return
		}
		reply(Result{
			View:      View{ID: vr.Ev.ViewID, Members: vr.Ev.Members},
			Member:    vr.Ev.Member,
			Epoch:     vr.Ev.Sn,
			Protocol:  vr.Ev.Protocol,
			Endpoints: vr.Ev.Endpoints,
			NextID:    vr.Ev.NextID,
			NoOp:      vr.Ev.NoOp,
		})
	}
}

// HandleIndication mirrors committed view changes into the public view
// stream and, with AutoEvict, turns suspicions into proposed evictions.
func (m *Module) HandleIndication(_ kernel.ServiceID, ind kernel.Indication) {
	switch v := ind.(type) {
	case core.ViewChange:
		m.view = View{ID: v.ViewID, Members: append([]kernel.Addr(nil), v.Members...)}
		if v.Op == core.ViewJoin {
			delete(m.proposed, v.Member) // a rejoiner is proposable again
		}
		m.Stk.Indicate(Service, NewView{View: m.view.clone()})
	case fd.Suspect:
		if !m.cfg.AutoEvict || m.proposed[v.P] || !m.view.Contains(v.P) {
			return
		}
		m.proposed[v.P] = true
		autoEvictCounter.Add(1)
		m.Stk.Call(core.Service, core.ChangeView{Op: core.ViewLeave, Member: v.P})
	case fd.Restore:
		// The suspicion was false and the eviction may or may not have
		// committed; either way the peer is proposable again if it is
		// (still or again) a member.
		delete(m.proposed, v.P)
	}
}
