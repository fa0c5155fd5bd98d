// Package kernel implements the protocol-composition framework of the
// paper's Section 2 (the SAMOA model): protocols are implemented by one
// module per stack; modules are dynamically bound to and unbound from
// services; a service call executes the bound module, and a call made
// while no module is bound is parked until some module is bound (weak
// stack-well-formedness is the guarantee that this wait is finite).
//
// Execution model: every stack owns a single serial executor goroutine.
// All module state on a stack is read and written only by events running
// on that executor, so modules need no internal locking. Network
// callbacks and timers inject events from the outside with Do; test and
// application code can use DoSync to run a closure and wait for it.
//
// Concurrency contract:
//
//   - Call, Indicate, Do, After, Every are safe from any goroutine.
//   - CallSync, RegisterFlusher, Bind, Unbind, Subscribe, Unsubscribe,
//     AddModule, RemoveModule, CreateProtocol, EnsureService, Provider
//     and the other structural accessors must run on the executor
//     (module code, or a closure passed to Do/DoSync).
package kernel

import (
	"fmt"
	"log"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vclock"
)

// Addr identifies a stack (a machine in the paper's model).
type Addr int

// ServiceID names a service: the specification of a distributed
// protocol, e.g. "abcast" or "consensus".
type ServiceID string

// ModuleID uniquely names a module instance within one stack.
type ModuleID string

// Request is a service call payload, handled by the module bound to the
// service.
type Request any

// Indication is an up-call payload, delivered to every listener of the
// service (a "response" in the paper's terminology).
type Indication any

// Module is one protocol module living in one stack. HandleRequest and
// HandleIndication are invoked on the stack's executor goroutine.
type Module interface {
	// ID returns the module's unique identity within its stack.
	ID() ModuleID
	// Protocol returns the protocol name this module implements
	// (several modules of the same protocol may coexist, e.g. the old
	// and the new version during a dynamic update).
	Protocol() string
	// HandleRequest processes a call on a service this module is bound to.
	HandleRequest(svc ServiceID, req Request)
	// HandleIndication processes an indication emitted on a service this
	// module subscribed to.
	HandleIndication(svc ServiceID, ind Indication)
	// Start is invoked on the executor after the module has been added,
	// bound to its provided services, and its required services ensured.
	Start()
	// Stop is invoked on the executor when the module is removed.
	Stop()
}

// Factory describes how to instantiate a protocol module and which
// services it provides and requires, enabling the paper's create_module
// recursion (Algorithm 1, lines 22-28).
type Factory struct {
	// Protocol is the unique protocol name, e.g. "net/rp2p".
	Protocol string
	// Provides lists services the module gets bound to on creation.
	Provides []ServiceID
	// Requires lists services that must be bound before the module starts.
	Requires []ServiceID
	// New constructs the module for a stack. It must not touch stack
	// structure; wiring happens in Start.
	New func(st *Stack) Module
}

// Registry maps protocol names to factories and services to the
// protocols able to provide them. A single registry is typically shared
// by all stacks of a group.
type Registry struct {
	mu        sync.RWMutex
	byProto   map[string]Factory
	byService map[ServiceID][]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byProto:   make(map[string]Factory),
		byService: make(map[ServiceID][]string),
	}
}

// Register adds a factory. Registering the same protocol name twice is
// an error.
func (r *Registry) Register(f Factory) error {
	if f.Protocol == "" {
		return fmt.Errorf("kernel: factory with empty protocol name")
	}
	if f.New == nil {
		return fmt.Errorf("kernel: factory %q has nil constructor", f.Protocol)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byProto[f.Protocol]; dup {
		return fmt.Errorf("kernel: protocol %q already registered", f.Protocol)
	}
	r.byProto[f.Protocol] = f
	for _, s := range f.Provides {
		r.byService[s] = append(r.byService[s], f.Protocol)
	}
	return nil
}

// MustRegister is Register that panics on error; for package init wiring.
func (r *Registry) MustRegister(f Factory) {
	if err := r.Register(f); err != nil {
		panic(err)
	}
}

// Lookup returns the factory registered under the protocol name.
func (r *Registry) Lookup(protocol string) (Factory, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.byProto[protocol]
	return f, ok
}

// ProviderFor returns the first registered protocol providing svc.
func (r *Registry) ProviderFor(svc ServiceID) (Factory, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	protos := r.byService[svc]
	if len(protos) == 0 {
		return Factory{}, false
	}
	return r.byProto[protos[0]], true
}

// Protocols returns the sorted names of all registered protocols.
func (r *Registry) Protocols() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.byProto))
	for n := range r.byProto {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Config configures a stack.
type Config struct {
	// Addr is this stack's address within the group.
	Addr Addr
	// Peers lists every stack of the group, including Addr itself.
	Peers []Addr
	// Registry resolves protocol factories for create_module recursion.
	Registry *Registry
	// Tracer, when non-nil, receives structural events (binds, blocked
	// calls, ...) for the property checkers. May be shared across stacks.
	Tracer Tracer
	// Seed seeds the stack-local deterministic RNG (executor-only use).
	Seed int64
	// Logger, when non-nil, receives diagnostic messages.
	Logger *log.Logger
	// Clock supplies time to the stack (timers, timestamps). Nil means
	// the wall clock; simulations inject a vclock.Virtual so whole
	// clusters run under discrete-event virtual time.
	Clock vclock.Clock
}

// PeerService is the kernel-provided membership service: SetPeers
// indicates PeersChanged on it, so protocol modules whose state is
// keyed by the peer set (rp2p connections, fd monitors, consensus
// quorums, transport routes) can reconfigure at runtime instead of
// freezing the group at construction. The service has no provider —
// only indications flow.
const PeerService ServiceID = "kernel/peers"

// PeersChanged is indicated on PeerService after every SetPeers that
// altered the peer set. Slices and the map are shared snapshots:
// listeners must not mutate them.
type PeersChanged struct {
	// Peers is the new peer set (sorted, including this stack when it
	// is still a member).
	Peers []Addr
	// Added and Removed are the deltas relative to the previous set.
	Added   []Addr
	Removed []Addr
	// Endpoints maps peers to transport endpoint strings, when known
	// (empty for fabrics with implicit routing, e.g. simnet).
	Endpoints map[Addr]string
}

// peerSet is the stack's current view of the group, swapped atomically
// so Peers/Others/N stay safe from any goroutine.
type peerSet struct {
	peers     []Addr
	endpoints map[Addr]string
}

// Stack is the set of modules located on one machine, together with the
// service bindings and the serial executor that runs them.
type Stack struct {
	cfg   Config
	clock vclock.Clock
	exec  *executor
	rng   *rand.Rand
	peers atomic.Pointer[peerSet]

	// Executor-owned state below.
	services   map[ServiceID]*service
	modules    map[ModuleID]Module
	protoSeq   map[string]int // per-protocol instance counter for module IDs
	ensuring   map[ServiceID]bool
	flushers   []flusher
	flusherSeq int
	flushAt    int // index of the flusher runFlushers is running

	timerMu sync.Mutex
	timers  []*Timer // armed timers (Timer.slot indexes it); guarded by timerMu
	closed  bool     // guarded by timerMu; blocks new timers after close

	crashed atomic.Bool
}

// service holds the binding state for one service on one stack.
type service struct {
	id        ServiceID
	provider  Module
	listeners []Module
	pending   []pendingCall
}

type pendingCall struct {
	req Request
	at  time.Time
}

// NewStack creates a stack and starts its executor.
func NewStack(cfg Config) *Stack {
	if cfg.Registry == nil {
		cfg.Registry = NewRegistry()
	}
	clock := cfg.Clock
	if clock == nil {
		clock = vclock.Wall
	}
	st := &Stack{
		cfg:      cfg,
		clock:    clock,
		rng:      rand.New(rand.NewSource(cfg.Seed ^ (int64(cfg.Addr) << 32))),
		services: make(map[ServiceID]*service),
		modules:  make(map[ModuleID]Module),
		protoSeq: make(map[string]int),
		ensuring: make(map[ServiceID]bool),
	}
	initial := append([]Addr(nil), cfg.Peers...)
	sort.Slice(initial, func(i, j int) bool { return initial[i] < initial[j] })
	st.peers.Store(&peerSet{peers: initial})
	st.exec = newExecutor(st.runTask, st.runFlushers)
	return st
}

// Addr returns this stack's address.
func (st *Stack) Addr() Addr { return st.cfg.Addr }

// Clock returns the stack's time source (the wall clock unless one was
// injected through Config.Clock).
func (st *Stack) Clock() vclock.Clock { return st.clock }

// Now returns the current instant on the stack's clock. Modules must
// use this (or Clock()) instead of time.Now so simulated runs stay on
// virtual time.
func (st *Stack) Now() time.Time { return st.clock.Now() }

// QueueState exposes the executor's accepted-work counter and idleness
// so a virtual clock can detect quiescence (vclock.Source).
func (st *Stack) QueueState() (uint64, bool) { return st.exec.queueState() }

// Peers returns the current group membership (including this stack
// while it remains a member). The slice is a shared snapshot — callers
// must not mutate it. The set is seeded from Config.Peers and evolves
// through SetPeers as GM views are installed.
func (st *Stack) Peers() []Addr { return st.peers.Load().peers }

// Endpoint returns the transport endpoint recorded for a peer by the
// last SetPeers ("" when unknown or for implicit-routing fabrics).
func (st *Stack) Endpoint(p Addr) string { return st.peers.Load().endpoints[p] }

// N returns the current group size.
func (st *Stack) N() int { return len(st.Peers()) }

// Others returns all current peers except this stack.
func (st *Stack) Others() []Addr {
	peers := st.Peers()
	out := make([]Addr, 0, len(peers)-1)
	for _, p := range peers {
		if p != st.cfg.Addr {
			out = append(out, p)
		}
	}
	return out
}

// SetPeers installs a new peer set (a membership view), returning the
// deltas against the previous one. When anything changed, PeersChanged
// is indicated on PeerService so every peer-keyed layer reconfigures.
// endpoints (may be nil) maps peers to transport endpoint strings; it is
// retained as a shared snapshot. Executor-only.
//
//dpulint:executor
func (st *Stack) SetPeers(peers []Addr, endpoints map[Addr]string) (added, removed []Addr) {
	next := append([]Addr(nil), peers...)
	sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
	prev := st.peers.Load()
	in := func(set []Addr, p Addr) bool {
		for _, q := range set {
			if q == p {
				return true
			}
		}
		return false
	}
	for _, p := range next {
		if !in(prev.peers, p) {
			added = append(added, p)
		}
	}
	for _, p := range prev.peers {
		if !in(next, p) {
			removed = append(removed, p)
		}
	}
	if len(added) == 0 && len(removed) == 0 {
		return nil, nil
	}
	st.peers.Store(&peerSet{peers: next, endpoints: endpoints})
	st.trace(TraceEvent{Kind: TracePeersChanged})
	st.Indicate(PeerService, PeersChanged{Peers: next, Added: added, Removed: removed, Endpoints: endpoints})
	return added, removed
}

// Registry returns the factory registry used for create_module recursion.
func (st *Stack) Registry() *Registry { return st.cfg.Registry }

// Rand returns the stack-local deterministic RNG. Executor-only.
//
//dpulint:executor
func (st *Stack) Rand() *rand.Rand { return st.rng }

// Logf logs a diagnostic message when a logger is configured.
func (st *Stack) Logf(format string, args ...any) {
	if st.cfg.Logger != nil {
		st.cfg.Logger.Printf("[stack %d] "+format, append([]any{st.cfg.Addr}, args...)...)
	}
}

// Do schedules fn on the executor. It reports false when the stack has
// stopped (crashed or closed) and the event was discarded.
func (st *Stack) Do(fn func()) bool {
	return st.exec.do(fn)
}

// runTask executes one queued event on the executor goroutine.
func (st *Stack) runTask(t *task) {
	switch t.kind {
	case kindFn:
		t.fn()
	case kindCall:
		st.dispatch(t.svc, t.arg)
	case kindIndicate:
		st.indicate(t.svc, t.arg)
	case kindIndicateBatch:
		for _, ind := range t.arg.([]Indication) {
			st.indicate(t.svc, ind)
		}
	case kindTimer:
		t.arg.(*Timer).run()
	}
}

// flusher is one registered post-batch hook.
type flusher struct {
	id int
	fn func()
}

// RegisterFlusher registers fn to run on the executor after every
// drained event batch (and before the executor sleeps), so a module can
// coalesce the batch's outgoing traffic into fewer datagrams. Flushers
// run in registration order; one registered by a flusher runs in the
// same pass, after it. The returned handle unregisters fn, and may be
// called from a flusher, fn's own included. Executor-only.
//
//dpulint:executor
func (st *Stack) RegisterFlusher(fn func()) (unregister func()) {
	st.flusherSeq++
	id := st.flusherSeq
	st.flushers = append(st.flushers, flusher{id: id, fn: fn})
	return func() {
		for i, f := range st.flushers {
			if f.id == id {
				st.flushers = append(st.flushers[:i], st.flushers[i+1:]...)
				if i <= st.flushAt {
					st.flushAt-- // keep a running walk on the next flusher
				}
				return
			}
		}
	}
}

// runFlushers runs after each drained batch, on the executor goroutine.
// It walks the live slice, so a flusher appended during the walk — udp
// arms its transport flush on the first datagram of a pass, which may
// come from another flusher — runs in this pass.
func (st *Stack) runFlushers() {
	for st.flushAt = 0; st.flushAt < len(st.flushers); st.flushAt++ {
		st.flushers[st.flushAt].fn()
	}
}

// DoSync runs fn on the executor and waits for it to complete. It must
// not be called from the executor itself (it would deadlock); module
// code already runs on the executor and can call fn directly. When the
// stack crashes before fn runs, DoSync returns an error instead of
// hanging.
func (st *Stack) DoSync(fn func()) error {
	done := make(chan struct{})
	ran := false
	ok := st.exec.do(func() {
		defer close(done)
		fn()
		ran = true
	})
	if !ok {
		return fmt.Errorf("kernel: stack %d stopped", st.cfg.Addr)
	}
	select {
	case <-done:
		return nil
	case <-st.exec.done:
		select {
		case <-done:
			if ran {
				return nil
			}
		default:
		}
		return fmt.Errorf("kernel: stack %d stopped before event ran", st.cfg.Addr)
	}
}

// Crashed reports whether the stack has crashed.
func (st *Stack) Crashed() bool { return st.crashed.Load() }

// Done returns a channel that is closed once the stack's executor has
// exited (after Crash or Close). It lets callers waiting on a reply
// from the executor abandon the wait instead of hanging forever.
func (st *Stack) Done() <-chan struct{} { return st.exec.done }

// Running reports whether the executor still accepts events.
func (st *Stack) Running() bool { return st.exec.running() }

// Crash halts the stack immediately: queued events are discarded and
// timers cancelled, modelling a machine crash. Safe from any goroutine,
// including the stack's own executor.
func (st *Stack) Crash() {
	st.crashed.Store(true)
	st.cancelTimers()
	st.trace(TraceEvent{Kind: TraceCrash})
	st.exec.stop(false)
}

// Close stops the stack after the currently queued events have run and
// waits for the executor to exit. Must not be called from the executor.
func (st *Stack) Close() {
	st.cancelTimers()
	st.exec.stop(true)
	st.exec.wait()
}

func (st *Stack) cancelTimers() {
	st.timerMu.Lock()
	defer st.timerMu.Unlock()
	st.closed = true
	for len(st.timers) > 0 {
		st.timers[0].stopLocked()
	}
	st.timers = nil
}

// Timer is a deferred event on the stack's executor. One Timer can be
// armed any number of times with Reset: it keeps its clock entry, so
// re-arming allocates nothing.
//
// A firing runs fn as one executor task, one at a time: an Every timer
// that fires again before its task ran queues no second one. A Stop or
// Reset that comes after the clock fired but before that task ran drops
// the task, so fn never runs for an arm that was superseded.
type Timer struct {
	st    *Stack
	fn    func()        // runs on the executor
	every time.Duration // Every: each firing re-arms the timer this far ahead
	ct    vclock.Timer  // the clock entry; nil until first armed

	// Guarded by st.timerMu.
	slot   int  // index in st.timers while armed, -1 otherwise
	armed  bool // pending on the clock
	queued bool // fired; its executor task has not run yet
	stale  int  // firings already popped by the clock that a Stop or Reset overtook
}

// NewTimer returns an unarmed timer that runs fn on the executor each
// time it fires. Arm it with Reset.
func (st *Stack) NewTimer(fn func()) *Timer {
	return &Timer{st: st, fn: fn, slot: -1}
}

// After schedules fn on the executor after d. The returned timer can be
// stopped and re-armed; it is valid (and inert) even when the stack
// already stopped.
func (st *Stack) After(d time.Duration, fn func()) *Timer {
	t := st.NewTimer(fn)
	t.Reset(d)
	return t
}

// Every schedules fn on the executor every d until the returned timer
// is stopped or the stack stops.
func (st *Stack) Every(d time.Duration, fn func()) *Timer {
	t := st.NewTimer(fn)
	t.every = d
	t.Reset(d)
	return t
}

// Reset arms the timer to fire d from now, replacing a pending arm and
// a firing whose task has not run yet. It takes a fresh registration
// number on the clock, so it fires exactly where a new After would. Safe
// from any goroutine; a no-op once the stack stopped.
func (t *Timer) Reset(d time.Duration) {
	st := t.st
	st.timerMu.Lock()
	defer st.timerMu.Unlock()
	t.queued = false
	if st.closed {
		return
	}
	if t.ct == nil {
		t.ct = st.clock.AfterFunc(d, t.fire)
	} else if !t.ct.Reset(d) && t.armed {
		t.stale++ // the clock had fired it; that firing is now stale
	}
	t.armed = true
	if t.slot < 0 {
		t.slot = len(st.timers)
		st.timers = append(st.timers, t)
	}
}

// Stop cancels the timer, and a firing whose task has not run yet. Safe
// from any goroutine; a no-op if the timer is not armed.
func (t *Timer) Stop() {
	t.st.timerMu.Lock()
	defer t.st.timerMu.Unlock()
	t.queued = false
	t.stopLocked()
}

func (t *Timer) stopLocked() {
	if !t.armed {
		return
	}
	if !t.ct.Stop() {
		t.stale++
	}
	t.disarmLocked()
}

// disarmLocked takes the timer out of the stack's armed set.
func (t *Timer) disarmLocked() {
	ts := t.st.timers
	last := ts[len(ts)-1]
	ts[t.slot], last.slot = last, t.slot
	ts[len(ts)-1] = nil
	t.st.timers = ts[:len(ts)-1]
	t.armed, t.slot = false, -1
}

// fire is the clock callback: it queues fn's task (one at a time) and
// re-arms an Every timer.
func (t *Timer) fire() {
	st := t.st
	st.timerMu.Lock()
	if t.stale > 0 {
		t.stale--
		st.timerMu.Unlock()
		return
	}
	if t.every > 0 {
		t.ct.Reset(t.every)
	} else {
		t.disarmLocked()
	}
	queue := !t.queued
	t.queued = true
	st.timerMu.Unlock()
	if queue && !st.exec.enqueue(task{kind: kindTimer, arg: t}) {
		t.Stop() // the executor stopped: so does an Every chain
	}
}

// run is the fired timer's task on the executor.
func (t *Timer) run() {
	t.st.timerMu.Lock()
	current := t.queued
	t.queued = false
	t.st.timerMu.Unlock()
	if current {
		t.fn()
	}
}

// svc returns (creating on demand) the service record. Executor-only.
func (st *Stack) svc(id ServiceID) *service {
	s, ok := st.services[id]
	if !ok {
		s = &service{id: id}
		st.services[id] = s
	}
	return s
}

// Call invokes the service: the bound module handles the request; with
// no module bound the call is parked until a bind (the paper's blocked
// service call). Safe from any goroutine.
func (st *Stack) Call(id ServiceID, req Request) {
	st.exec.enqueue(task{kind: kindCall, svc: id, arg: req})
}

// CallSync invokes the service synchronously, without a trip through
// the event queue: the bound module's handler runs before CallSync
// returns (an unbound service still parks the request, exactly like
// Call). Executor-only — module code uses it on its hot data path to a
// required lower service, where the queue round-trip (and the extended
// buffer lifetime it implies) is pure overhead. Callers must tolerate
// the handler running re-entrantly beneath them.
//
//dpulint:executor
func (st *Stack) CallSync(id ServiceID, req Request) {
	st.dispatch(id, req)
}

// dispatch routes a request. Executor-only.
func (st *Stack) dispatch(id ServiceID, req Request) {
	s := st.svc(id)
	if s.provider == nil {
		s.pending = append(s.pending, pendingCall{req: req, at: st.clock.Now()})
		st.trace(TraceEvent{Kind: TraceCallBlocked, Service: id})
		return
	}
	st.trace(TraceEvent{Kind: TraceCall, Service: id, Module: s.provider.ID()})
	s.provider.HandleRequest(id, req)
}

// Indicate emits an indication on the service: every subscribed listener
// receives it. Safe from any goroutine.
func (st *Stack) Indicate(id ServiceID, ind Indication) {
	st.exec.enqueue(task{kind: kindIndicate, svc: id, arg: ind})
}

// IndicateBatch emits a batch of indications on the service as ONE
// queued executor event: listeners see each indication individually, in
// order, exactly as len(inds) Indicate calls would deliver them, but
// the whole batch costs one queue round-trip (and one wake-up) instead
// of len(inds). The batched transport receive path exists for this
// call. The slice is retained until the event runs; the caller hands
// over ownership. Safe from any goroutine.
func (st *Stack) IndicateBatch(id ServiceID, inds []Indication) {
	if len(inds) == 0 {
		return
	}
	st.exec.enqueue(task{kind: kindIndicateBatch, svc: id, arg: inds})
}

// indicate delivers an indication to the current listeners. Executor-only.
func (st *Stack) indicate(id ServiceID, ind Indication) {
	s := st.svc(id)
	if len(s.listeners) == 0 {
		st.trace(TraceEvent{Kind: TraceIndicationDropped, Service: id})
		return
	}
	st.trace(TraceEvent{Kind: TraceIndicate, Service: id})
	// The listener slice is copy-on-write (Subscribe/Unsubscribe replace
	// it, never mutate it in place), so iterating the current header is
	// safe even when a handler changes the subscriptions mid-indication
	// — no per-indication snapshot copy.
	for _, m := range s.listeners {
		m.HandleIndication(id, ind)
	}
}

// Bind binds m to the service and flushes any parked calls to it, in
// arrival order. At most one module may be bound at a time (paper §2).
// Executor-only.
//
//dpulint:executor
func (st *Stack) Bind(id ServiceID, m Module) error {
	s := st.svc(id)
	if s.provider != nil {
		return fmt.Errorf("kernel: service %q already bound to %q", id, s.provider.ID())
	}
	s.provider = m
	st.trace(TraceEvent{Kind: TraceBind, Service: id, Module: m.ID(), Protocol: m.Protocol()})
	if len(s.pending) > 0 {
		parked := s.pending
		s.pending = nil
		now := st.clock.Now()
		for _, pc := range parked {
			st.trace(TraceEvent{
				Kind: TraceCallUnblocked, Service: id, Module: m.ID(),
				Blocked: now.Sub(pc.at),
			})
			m.HandleRequest(id, pc.req)
		}
	}
	return nil
}

// Unbind removes the current binding of the service. The module stays
// in the stack and may keep emitting indications (paper §2: "Unbinding a
// module does not remove it from the stack"). Executor-only.
func (st *Stack) Unbind(id ServiceID) {
	s := st.svc(id)
	if s.provider == nil {
		return
	}
	st.trace(TraceEvent{Kind: TraceUnbind, Service: id, Module: s.provider.ID(), Protocol: s.provider.Protocol()})
	s.provider = nil
}

// Provider returns the module currently bound to the service, or nil.
// Executor-only.
func (st *Stack) Provider(id ServiceID) Module {
	return st.svc(id).provider
}

// PendingCalls returns the number of parked calls on the service.
// Executor-only.
func (st *Stack) PendingCalls(id ServiceID) int {
	return len(st.svc(id).pending)
}

// Subscribe registers m as a listener of the service's indications.
// The listener slice is copy-on-write: mutation allocates a fresh slice
// so that an indication iterating the old one mid-change stays valid
// (subscriptions change rarely; indications are the hot path).
// Executor-only.
func (st *Stack) Subscribe(id ServiceID, m Module) {
	s := st.svc(id)
	for _, l := range s.listeners {
		if l.ID() == m.ID() {
			return
		}
	}
	next := make([]Module, len(s.listeners)+1)
	copy(next, s.listeners)
	next[len(next)-1] = m
	s.listeners = next
	st.trace(TraceEvent{Kind: TraceSubscribe, Service: id, Module: m.ID()})
}

// Unsubscribe removes m from the service's listeners (copy-on-write,
// see Subscribe). Executor-only.
func (st *Stack) Unsubscribe(id ServiceID, m Module) {
	s := st.svc(id)
	for i, l := range s.listeners {
		if l.ID() == m.ID() {
			next := make([]Module, 0, len(s.listeners)-1)
			next = append(next, s.listeners[:i]...)
			next = append(next, s.listeners[i+1:]...)
			s.listeners = next
			st.trace(TraceEvent{Kind: TraceUnsubscribe, Service: id, Module: m.ID()})
			return
		}
	}
}

// AddModule inserts a constructed module into the stack without binding
// or starting it. Executor-only.
func (st *Stack) AddModule(m Module) error {
	if _, dup := st.modules[m.ID()]; dup {
		return fmt.Errorf("kernel: module %q already in stack %d", m.ID(), st.cfg.Addr)
	}
	st.modules[m.ID()] = m
	st.trace(TraceEvent{Kind: TraceModuleAdd, Module: m.ID(), Protocol: m.Protocol()})
	return nil
}

// RemoveModule unbinds the module everywhere, unsubscribes it, stops it
// and removes it from the stack. Executor-only.
func (st *Stack) RemoveModule(id ModuleID) {
	m, ok := st.modules[id]
	if !ok {
		return
	}
	for _, s := range st.services {
		if s.provider != nil && s.provider.ID() == id {
			st.Unbind(s.id)
		}
		st.Unsubscribe(s.id, m)
	}
	m.Stop()
	delete(st.modules, id)
	st.trace(TraceEvent{Kind: TraceModuleRemove, Module: id, Protocol: m.Protocol()})
}

// Module returns the module with the given ID, if present. Executor-only.
func (st *Stack) Module(id ModuleID) (Module, bool) {
	m, ok := st.modules[id]
	return m, ok
}

// Modules returns the IDs of all modules in the stack, sorted.
// Executor-only.
func (st *Stack) Modules() []ModuleID {
	ids := make([]ModuleID, 0, len(st.modules))
	for id := range st.modules {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// HasProtocol reports whether some module of the protocol is in the
// stack. Executor-only.
func (st *Stack) HasProtocol(protocol string) bool {
	for _, m := range st.modules {
		if m.Protocol() == protocol {
			return true
		}
	}
	return false
}

// NextModuleID builds a unique module ID for a protocol instance, e.g.
// "abcast/ct#1@3". Executor-only.
func (st *Stack) NextModuleID(protocol string) ModuleID {
	st.protoSeq[protocol]++
	return ModuleID(fmt.Sprintf("%s#%d@%d", protocol, st.protoSeq[protocol], st.cfg.Addr))
}

// CreateProtocol implements the paper's create_module(p) recursion
// (Algorithm 1, lines 22-28): construct the protocol's module, add it,
// bind it to its provided services, recursively ensure every required
// service has a bound provider, then start the module. Executor-only.
//
//dpulint:executor
func (st *Stack) CreateProtocol(protocol string) (Module, error) {
	f, ok := st.cfg.Registry.Lookup(protocol)
	if !ok {
		return nil, fmt.Errorf("kernel: unknown protocol %q", protocol)
	}
	return st.instantiate(f)
}

func (st *Stack) instantiate(f Factory) (Module, error) {
	m := f.New(st)
	if err := st.AddModule(m); err != nil {
		return nil, err
	}
	for _, svc := range f.Provides {
		if err := st.Bind(svc, m); err != nil {
			st.RemoveModule(m.ID())
			return nil, err
		}
	}
	for _, svc := range f.Requires {
		if err := st.EnsureService(svc); err != nil {
			st.RemoveModule(m.ID())
			return nil, err
		}
	}
	m.Start()
	return m, nil
}

// EnsureService guarantees that a provider is bound to svc, creating one
// through the registry when necessary (lines 26-28 of Algorithm 1).
// Executor-only.
//
//dpulint:executor
func (st *Stack) EnsureService(svc ServiceID) error {
	if st.svc(svc).provider != nil {
		return nil
	}
	if st.ensuring[svc] {
		return fmt.Errorf("kernel: cyclic service requirement through %q", svc)
	}
	f, ok := st.cfg.Registry.ProviderFor(svc)
	if !ok {
		return fmt.Errorf("kernel: no registered provider for service %q", svc)
	}
	st.ensuring[svc] = true
	defer delete(st.ensuring, svc)
	_, err := st.instantiate(f)
	return err
}

func (st *Stack) trace(ev TraceEvent) {
	if st.cfg.Tracer == nil {
		return
	}
	ev.Stack = st.cfg.Addr
	if ev.Time.IsZero() {
		ev.Time = st.clock.Now()
	}
	st.cfg.Tracer.Trace(ev)
}
