package dpu

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/abcast"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/fd"
	"repro/internal/gm"
	"repro/internal/kernel"
	"repro/internal/policy"
	"repro/internal/rbcast"
	"repro/internal/rp2p"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/udp"
	"repro/internal/vclock"
)

// stackSlot is the per-stack state of one locally hosted member: the
// kernel stack plus the event-stream plumbing. Slots are allocated once
// and referenced by pointer, so the cluster's id space can grow at
// runtime (AddNode) without invalidating publishers already running.
type stackSlot struct {
	id int
	st *kernel.Stack

	// Backpressure window for Node.Broadcast: one token per own
	// broadcast still undelivered locally.
	outstanding chan struct{}

	// Subscription registry. The lock is per slot so a Block-policy
	// publisher parked on one stack's slow consumer cannot stall
	// Subscribe/Close traffic on other stacks.
	subMu sync.RWMutex
	subs  []*Subscription

	// retired flips once when the member is evicted from the view (or
	// crashed by the test harness) and the slot's stack is halted.
	retired atomic.Bool
}

// Cluster is a running group of stacks — all hosted by this process
// (the default), or just the subset selected with WithLocalStacks when
// the group spans several processes over a shared transport. With
// membership enabled the group is elastic: AddNode admits new members
// at runtime and Node.Evict (or the auto-evictor) removes them, with
// every layer of every stack reconfigured by the installed view.
type Cluster struct {
	net        *simnet.Network // nil when running over an external transport
	tr         transport.Transport
	impls      *abcast.Registry
	membership bool
	opts       *options
	clock      vclock.Clock

	// mu guards the slot table (the id space), which grows on AddNode.
	mu    sync.RWMutex
	slots []*stackSlot // indexed by stack id; nil for remote stacks

	// engine is the adaptation loop started by WithAdaptive (nil
	// otherwise); see adaptive.go.
	engine *policy.Engine

	closed    chan struct{}
	closeOnce sync.Once
}

// defaultOptions returns the option block New and Join start from.
func defaultOptions() *options {
	return &options{
		protocol: ProtocolCT,
		net: simnet.Config{
			BaseLatency:  100 * time.Microsecond,
			Jitter:       50 * time.Microsecond,
			BandwidthBps: 100e6,
		},
		grace:          500 * time.Millisecond,
		maxOutstanding: 1024,
		joinTimeout:    60 * time.Second,
		joinRetry:      joinRetryConfig{attempts: 1, base: 100 * time.Millisecond, max: 5 * time.Second},
	}
}

// buildImpls assembles the atomic-broadcast implementation registry
// (the bundled three plus registered extras).
func buildImpls(o *options) (*abcast.Registry, error) {
	impls := abcast.StandardRegistry()
	for _, im := range o.extraImpls {
		if err := impls.Register(im); err != nil {
			return nil, err
		}
	}
	return impls, nil
}

// New assembles and starts a cluster of n stacks.
func New(n int, opts ...Option) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("dpu: cluster size %d < 1", n)
	}
	o := defaultOptions()
	for _, opt := range opts {
		opt(o)
	}

	// Validate configuration and build the registry before constructing
	// any transport, so every early error return leaves the caller's
	// transport untouched and nothing is leaked.
	local := slices.Compact(slices.Sorted(slices.Values(o.local)))
	if len(local) == 0 {
		for i := range n {
			local = append(local, i)
		}
	}
	for _, id := range local {
		if id < 0 || id >= n {
			return nil, fmt.Errorf("%w: local stack %d not in [0,%d)", ErrOutOfRange, id, n)
		}
	}
	if o.adaptive != nil && o.adaptive.policy == nil {
		return nil, fmt.Errorf("dpu: WithAdaptive requires a policy (e.g. dpu.LossSensitivePolicy)")
	}
	impls, err := buildImpls(o)
	if err != nil {
		return nil, err
	}
	if o.clock == nil {
		o.clock = vclock.Wall
	} else if o.transport != nil && vclock.IsVirtual(o.clock) {
		return nil, fmt.Errorf("%w: WithClock(virtual) requires the built-in simulated network", ErrUnsupported)
	}

	var (
		net *simnet.Network
		tr  = o.transport
	)
	if tr == nil {
		// The simulated LAN only delays and carries packets; its faults
		// come from the Faulty decorator, on a seed stream distinct from
		// the fabric's jitter draws so the two never correlate.
		o.net.Clock = o.clock
		net = simnet.New(o.net)
		tr = transport.Faulty(transport.Sim(net), transport.FaultConfig{Seed: o.net.Seed ^ 0x5eedfa17, Clock: o.clock})
	}

	endpoints := make(map[kernel.Addr]string, len(o.endpoints))
	for id, ep := range o.endpoints {
		endpoints[kernel.Addr(id)] = ep
	}
	peers := make([]kernel.Addr, n)
	for i := range peers {
		peers[i] = kernel.Addr(i)
	}
	c, err := start(o, net, tr, impls, n, local, peers, bootCut{protocol: o.protocol, endpoints: endpoints})
	if err != nil {
		return nil, err
	}
	if o.adaptive != nil {
		c.startAdaptive(o.adaptive)
	}
	return c, nil
}

// start is the one Cluster constructor, shared by New and Join: a
// cluster over tr with room for size ids, whose local stacks ids boot,
// in order, from one cut over peers. A failed boot closes the cluster,
// transport included.
func start(o *options, net *simnet.Network, tr transport.Transport, impls *abcast.Registry, size int, ids []int, peers []kernel.Addr, cut bootCut) (*Cluster, error) {
	if o.maxOutstanding < 1 {
		o.maxOutstanding = 1
	}
	c := &Cluster{
		net:        net,
		tr:         tr,
		impls:      impls,
		membership: o.membership,
		opts:       o,
		clock:      o.clock,
		slots:      make([]*stackSlot, size),
		closed:     make(chan struct{}),
	}
	reg := c.newRegistry(cut)
	for _, id := range ids {
		if _, err := c.buildStack(id, peers, reg); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// bootCut is the coherent cut a stack boots from: founders start at the
// zero cut; a joiner starts at the cut its join committed in, served by
// the sponsor (see AddNode and Join).
type bootCut struct {
	protocol  string
	epoch     uint64
	viewID    uint64
	nextID    kernel.Addr
	endpoints map[kernel.Addr]string
}

// newRegistry assembles the kernel factory registry for one boot cut.
// Founders share a single registry; each joiner gets its own, because
// the replacement module's initial epoch is part of the factory
// configuration.
func (c *Cluster) newRegistry(cut bootCut) *kernel.Registry {
	o := c.opts
	reg := kernel.NewRegistry()
	reg.MustRegister(udp.Factory(c.tr))
	reg.MustRegister(rp2p.Factory(rp2p.Config{}))
	reg.MustRegister(rbcast.Factory(rbcast.Config{}))
	reg.MustRegister(fd.Factory(o.fd))
	reg.MustRegister(consensus.Factory())
	for _, cv := range o.consVariants {
		reg.MustRegister(consensus.FactoryWith(cv))
	}
	reg.MustRegister(core.Factory(core.Config{
		InitialProtocol: cut.protocol,
		InitialEpoch:    cut.epoch,
		InitialViewID:   cut.viewID,
		InitialNextID:   cut.nextID,
		Endpoints:       cut.endpoints,
		Impls:           c.impls,
		Grace:           o.grace,
		RetryLostChange: true,
		BatchDelay:      o.batchDelay,
		BatchBytes:      o.batchBytes,
	}))
	if o.membership {
		reg.MustRegister(gm.FactoryWith(gm.Config{
			AutoEvict:     o.autoEvict,
			InitialViewID: cut.viewID,
		}))
	}
	return reg
}

// buildStack creates, wires and starts one locally hosted stack and
// installs its slot. id may lie beyond the current slot table (a
// joiner), in which case the table grows.
func (c *Cluster) buildStack(id int, peers []kernel.Addr, reg *kernel.Registry) (*stackSlot, error) {
	o := c.opts
	st := kernel.NewStack(kernel.Config{
		Addr: kernel.Addr(id), Peers: peers, Registry: reg,
		Seed: o.net.Seed + int64(id), Tracer: o.tracer, Clock: c.clock,
	})
	s := &stackSlot{
		id:          id,
		st:          st,
		outstanding: make(chan struct{}, o.maxOutstanding),
	}
	var buildErr error
	err := st.DoSync(func() {
		if _, e := st.CreateProtocol(core.Protocol); e != nil {
			buildErr = e
			return
		}
		// A transport bind failure inside the build (real sockets: port
		// conflict, bad address) can only be recorded by the udp module;
		// surface it instead of returning a stack that silently drops
		// all traffic.
		if um, ok := st.Provider(udp.Service).(*udp.Module); ok {
			if e := um.OpenErr(); e != nil {
				buildErr = e
				return
			}
		}
		if c.membership {
			if _, e := st.CreateProtocol(gm.Protocol); e != nil {
				buildErr = e
				return
			}
		}
		pump := &pumpModule{Base: kernel.NewBase(st, "dpu/pump"), c: c, slot: s}
		st.AddModule(pump)
		st.Subscribe(core.Service, pump)
		if c.membership {
			st.Subscribe(gm.Service, pump)
		}
	})
	if err == nil {
		err = buildErr
	}
	if err != nil {
		st.Close()
		return nil, err
	}
	c.mu.Lock()
	for len(c.slots) <= id {
		c.slots = append(c.slots, nil)
	}
	c.slots[id] = s
	c.mu.Unlock()
	return s, nil
}

// pumpModule forwards public-service indications into the slot's
// subscriptions, completes the backpressure window for the stack's own
// deliveries, and retires the slot when the member is evicted from the
// view.
type pumpModule struct {
	kernel.Base
	c    *Cluster
	slot *stackSlot
}

func (p *pumpModule) HandleIndication(_ kernel.ServiceID, ind kernel.Indication) {
	s := p.slot
	switch v := ind.(type) {
	case core.Deliver:
		kind, body, err := envelope.Unwrap(v.Data)
		if err != nil || kind != envelope.KindApp {
			return
		}
		if v.Origin == kernel.Addr(s.id) {
			// One of this stack's own broadcasts completed the loop: free
			// the window slot it acquired in Node.Broadcast.
			select {
			case <-s.outstanding:
			default:
			}
		}
		s.publishDelivery(p.c, Delivery{Stack: s.id, Origin: int(v.Origin), Data: body, At: p.Stk.Now()})
	case core.Switched:
		s.publishSwitch(p.c, SwitchEvent{Stack: s.id, Epoch: v.Sn, Protocol: v.Protocol, At: v.At, Reissued: v.Reissued})
	case gm.NewView:
		members := make([]int, len(v.View.Members))
		selfIn := false
		for i, m := range v.View.Members {
			members[i] = int(m)
			if int(m) == s.id {
				selfIn = true
			}
		}
		s.publishView(p.c, View{ID: v.View.ID, Members: members})
		if !selfIn {
			// This member was evicted: the view above is the last event it
			// publishes; halt the stack so handles fail with ErrNotRunning
			// instead of hanging on a group that no longer talks to it.
			p.c.retire(s)
		}
		// A view installed: transport routes for members gone from every
		// local stack's view can now be retired.
		p.c.pruneRoutes()
	}
}

// pruneRoutes retires transport routes for addresses that no locally
// hosted stack still lists as a peer. Views install on each stack's
// executor independently, so the LAST local stack to apply an eviction
// performs the removal — earlier installs see the member still present
// in a sibling's peer set and leave the route alone (see the udp
// module's route-ownership note).
func (c *Cluster) pruneRoutes() {
	router, ok := c.tr.(transport.Router)
	if !ok {
		return
	}
	slots := c.localSlots()
	needed := make(map[int]bool)
	for _, s := range slots {
		needed[s.id] = true
		for _, p := range s.st.Peers() {
			needed[int(p)] = true
		}
	}
	for id := 0; id < c.N(); id++ {
		if !needed[id] {
			router.RemoveRoute(transport.Addr(id))
		}
	}
}

// retire halts an evicted (or crashed) member's stack, once.
func (c *Cluster) retire(s *stackSlot) {
	if !s.retired.CompareAndSwap(false, true) {
		return
	}
	s.st.Crash()
}

// slot validates a stack index: ErrOutOfRange outside the current id
// space, ErrRemoteStack for a stack hosted by another process,
// ErrNotRunning for a crashed, evicted or closed stack.
func (c *Cluster) slot(stack int) (*stackSlot, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if stack < 0 || stack >= len(c.slots) {
		return nil, fmt.Errorf("%w: %d not in [0,%d)", ErrOutOfRange, stack, len(c.slots))
	}
	s := c.slots[stack]
	if s == nil {
		return nil, fmt.Errorf("%w: stack %d", ErrRemoteStack, stack)
	}
	if !s.st.Running() {
		return nil, fmt.Errorf("%w: stack %d", ErrNotRunning, stack)
	}
	return s, nil
}

// localSlots snapshots the currently hosted slots, in id order.
func (c *Cluster) localSlots() []*stackSlot {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*stackSlot, 0, len(c.slots))
	for _, s := range c.slots {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

// check validates that the stack index is in range, hosted by this
// process, and still running.
func (c *Cluster) check(stack int) error {
	_, err := c.slot(stack)
	return err
}

// N returns the size of the cluster's id space: the founding size plus
// every member ever admitted with AddNode. Member ids are never reused,
// so evicted members leave gaps; the current membership is the view
// (Node.Subscribe with Views, or Status.Members via Node.Status).
func (c *Cluster) N() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.slots)
}

// sponsor returns the lowest-indexed local running stack: the one that
// orders this process's joins and their compensating evictions, and
// initiates ChangeProtocolAll.
func (c *Cluster) sponsor() (*stackSlot, error) {
	for _, s := range c.localSlots() {
		if s.st.Running() {
			return s, nil
		}
	}
	return nil, fmt.Errorf("%w: no local running stack", ErrNotRunning)
}

// ChangeProtocolAll replaces the atomic-broadcast protocol on every
// stack and blocks until every stack hosted by this process has
// completed the switch (remote stacks confirm on their own hosts via
// Node.WaitForEpoch). The change is initiated by the lowest-indexed
// local running stack; the returned SwitchEvent is the initiator's.
func (c *Cluster) ChangeProtocolAll(ctx context.Context, protocol string) (SwitchEvent, error) {
	s, err := c.sponsor()
	if err != nil {
		return SwitchEvent{}, err
	}
	initiator := &Node{c: c, id: s.id}
	ev, err := initiator.ChangeProtocol(ctx, protocol)
	if err != nil {
		return SwitchEvent{}, err
	}
	for _, s := range c.localSlots() {
		if s.id == initiator.id || !s.st.Running() {
			continue
		}
		n := &Node{c: c, id: s.id}
		if _, err := n.WaitForEpoch(ctx, ev.Epoch); err != nil {
			return ev, fmt.Errorf("dpu: waiting for stack %d: %w", s.id, err)
		}
	}
	return ev, nil
}

// peek returns the slot regardless of liveness: Node.Crash and Stack
// address crashed and evicted stacks too.
func (c *Cluster) peek(stack int) *stackSlot {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if stack < 0 || stack >= len(c.slots) {
		return nil
	}
	return c.slots[stack]
}

// PartitionLink cuts the network link between two stacks by cutting
// both one-way directions on the cluster's fault surface; see
// WithTransport for when an external transport has one (ErrUnsupported
// otherwise). A cut acts at send time: a datagram already in flight
// still arrives.
func (c *Cluster) PartitionLink(a, b int) error {
	if err := c.checkPair(a, b); err != nil {
		return err
	}
	fi, err := c.injector()
	if err != nil {
		return err
	}
	fi.CutOneWay(transport.Addr(a), transport.Addr(b))
	fi.CutOneWay(transport.Addr(b), transport.Addr(a))
	return nil
}

// HealLink restores the link between two stacks (both directions).
func (c *Cluster) HealLink(a, b int) error {
	if err := c.checkPair(a, b); err != nil {
		return err
	}
	fi, err := c.injector()
	if err != nil {
		return err
	}
	fi.HealOneWay(transport.Addr(a), transport.Addr(b))
	fi.HealOneWay(transport.Addr(b), transport.Addr(a))
	return nil
}

// Stack exposes the underlying kernel stack for advanced composition
// (binding custom modules, inspecting services); nil for an
// out-of-range index or a stack not hosted by this process. See
// internal/kernel's concurrency contract.
func (c *Cluster) Stack(stack int) *kernel.Stack {
	if s := c.peek(stack); s != nil {
		return s.st
	}
	return nil
}

// Close shuts the cluster down — including the transport, whether
// built-in or passed via WithTransport — closes every subscription, and
// unblocks any Node call still waiting (ErrClosed).
func (c *Cluster) Close() {
	c.closeOnce.Do(func() {
		close(c.closed) // unblocks Node waits and Block-policy publishers
		if c.engine != nil {
			// An in-flight engine switch unblocks via c.closed; Stop then
			// joins the sampling loop before the stacks go away.
			c.engine.Stop()
		}
		c.tr.Close()
		slots := c.localSlots()
		// Close every local stack, including crashed ones: Crash stops
		// the executor asynchronously, and Close waits for it to exit,
		// which guarantees no pump event is still mid-publish when the
		// subscriptions below are closed.
		for _, s := range slots {
			s.st.Close()
		}
		var subs []*Subscription
		for _, s := range slots {
			s.subMu.Lock()
			subs = append(subs, s.subs...)
			s.subMu.Unlock()
		}
		for _, sub := range subs {
			sub.Close()
		}
	})
}
