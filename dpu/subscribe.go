package dpu

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// LagPolicy selects what happens when a Subscription's consumer falls
// behind its buffer.
type LagPolicy int

const (
	// DropOldest discards the oldest buffered event to make room for
	// the newest and counts the discard (Subscription.Dropped). The
	// stack never blocks; a slow consumer sees the most recent window
	// of events. This is the default.
	DropOldest LagPolicy = iota
	// Block applies backpressure into the stack: the stack's executor
	// waits until the consumer makes room. Nothing is ever dropped, but
	// a stalled consumer stalls the whole stack — including the
	// protocol layers below — so Block is for consumers that must see
	// every event (e.g. state machine replicas) and are known to drain.
	Block
)

// SubscribeOptions selects the event streams and lag behavior of a
// Subscription. Zero-value streams are excluded; an excluded stream's
// accessor returns a channel that is already closed, so ranging over it
// terminates instead of blocking forever.
type SubscribeOptions struct {
	// Deliveries selects the totally-ordered message stream.
	Deliveries bool
	// Switches selects protocol-replacement completion events.
	Switches bool
	// Views selects membership views (requires WithMembership;
	// Subscribe fails with ErrNoMembership otherwise).
	Views bool
	// Advice selects adaptation decisions (requires WithAdaptive;
	// Subscribe fails with ErrNoAdaptive otherwise).
	Advice bool
	// Events selects the unified stream: deliveries, switches, views and
	// advice interleaved into one channel in the order the stack
	// publishes them. Invariant checkers use this — the relative order
	// of a delivery against a switch or view on the same stack is
	// exactly the commit order, which the separate typed streams lose.
	// Advice appears only when the cluster runs WithAdaptive.
	Events bool
	// Buffer is the per-stream channel capacity (default 256).
	Buffer int
	// Policy is the lag policy (default DropOldest).
	Policy LagPolicy
}

// EventKind discriminates the variants of a unified Event.
type EventKind int

const (
	// EventDelivery tags a totally-ordered message delivery.
	EventDelivery EventKind = iota
	// EventSwitch tags a protocol-replacement completion.
	EventSwitch
	// EventView tags a membership-view installation.
	EventView
	// EventAdvice tags an adaptation decision.
	EventAdvice
)

// Event is one entry of the unified stream: Kind selects which field is
// set.
type Event struct {
	Kind     EventKind
	Delivery Delivery
	Switch   SwitchEvent
	View     View
	Advice   Advice
}

// Subscription is one consumer's set of typed event streams from one
// stack. Each subscription has its own buffer and an explicit lag
// policy, and can be closed independently. Streams end (channels close)
// when the subscription or the cluster is closed.
type Subscription struct {
	c    *Cluster
	slot *stackSlot
	opts SubscribeOptions

	deliveries chan Delivery
	switches   chan SwitchEvent
	views      chan View
	advice     chan Advice
	events     chan Event
	dropped    atomic.Uint64

	done      chan struct{}
	closeOnce sync.Once
}

// Subscribe registers a new consumer of this stack's events. The
// subscription observes events from the moment of the call; it does not
// replay history.
func (n *Node) Subscribe(opts SubscribeOptions) (*Subscription, error) {
	slot, err := n.c.slot(n.id)
	if err != nil {
		return nil, err
	}
	if opts.Views && !n.c.membership {
		return nil, fmt.Errorf("%w: enable it with WithMembership", ErrNoMembership)
	}
	if opts.Advice && n.c.engine == nil {
		return nil, fmt.Errorf("%w: enable it with WithAdaptive", ErrNoAdaptive)
	}
	if opts.Buffer <= 0 {
		opts.Buffer = 256
	}
	s := &Subscription{
		c:          n.c,
		slot:       slot,
		opts:       opts,
		deliveries: newStream[Delivery](opts.Deliveries, opts.Buffer),
		switches:   newStream[SwitchEvent](opts.Switches, opts.Buffer),
		views:      newStream[View](opts.Views, opts.Buffer),
		advice:     newStream[Advice](opts.Advice, opts.Buffer),
		events:     newStream[Event](opts.Events, opts.Buffer),
		done:       make(chan struct{}),
	}
	slot.subMu.Lock()
	// Cluster.Close closes c.closed before it snapshots the registries,
	// so a subscription registered after that snapshot would never be
	// closed — refuse instead. Checked under the lock to make the two
	// orderings ("append then snapshot" and "refuse") the only ones.
	select {
	case <-n.c.closed:
		slot.subMu.Unlock()
		return nil, ErrClosed
	default:
	}
	slot.subs = append(slot.subs, s)
	slot.subMu.Unlock()
	return s, nil
}

// newStream makes one stream's channel: buffered when selected, and
// otherwise unbuffered and closed up front, so ranging over an excluded
// stream ends immediately instead of blocking on a channel that never
// receives.
func newStream[T any](selected bool, buffer int) chan T {
	if selected {
		return make(chan T, buffer)
	}
	ch := make(chan T)
	close(ch)
	return ch
}

// Deliveries returns the totally-ordered message stream (closed
// immediately when not selected in SubscribeOptions).
func (s *Subscription) Deliveries() <-chan Delivery { return s.deliveries }

// Switches returns the protocol-replacement event stream (closed
// immediately when not selected in SubscribeOptions).
func (s *Subscription) Switches() <-chan SwitchEvent { return s.switches }

// Views returns the membership-view stream (closed immediately when not
// selected in SubscribeOptions).
func (s *Subscription) Views() <-chan View { return s.views }

// Advice returns the adaptation-decision stream (closed immediately
// when not selected in SubscribeOptions).
func (s *Subscription) Advice() <-chan Advice { return s.advice }

// Events returns the unified interleaved stream (closed immediately
// when not selected in SubscribeOptions).
func (s *Subscription) Events() <-chan Event { return s.events }

// Dropped reports how many events (across all selected streams) the
// DropOldest policy has discarded because the consumer lagged. Always 0
// under Block.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Close detaches the subscription and closes its channels. Safe to call
// concurrently with event flow and more than once.
//
// Close must exclude the stack's publisher before closing the
// channels, so while a Block-policy publish to a *sibling*
// subscription on the same stack is parked on its stalled consumer,
// Close (like Subscribe) waits until that publish completes or the
// cluster closes. Closing this subscription's own parked publish never
// waits. This is the same-stack corollary of Block's contract: a
// stalled Block consumer stalls its stack.
func (s *Subscription) Close() {
	s.closeOnce.Do(func() {
		close(s.done) // unblocks a Block-policy publisher mid-send
		s.slot.subMu.Lock()
		list := s.slot.subs
		for i, x := range list {
			if x == s {
				s.slot.subs = append(list[:i], list[i+1:]...)
				break
			}
		}
		s.slot.subMu.Unlock()
		// Publishers run under the slot's RLock, so after the removal
		// above none can still hold this subscription: closing is safe.
		if s.opts.Deliveries {
			close(s.deliveries)
		}
		if s.opts.Switches {
			close(s.switches)
		}
		if s.opts.Views {
			close(s.views)
		}
		if s.opts.Advice {
			close(s.advice)
		}
		if s.opts.Events {
			close(s.events)
		}
	})
}

// lagPush delivers one event to one stream according to the
// subscription's lag policy. It runs on the stack's executor.
func lagPush[T any](s *Subscription, ch chan T, v T) {
	if s.opts.Policy == Block {
		select {
		case ch <- v:
		case <-s.done:
		case <-s.c.closed:
		}
		return
	}
	for {
		select {
		case ch <- v:
			return
		default:
		}
		select {
		case <-ch:
			s.dropped.Add(1)
		default:
		}
	}
}

func (slot *stackSlot) publishDelivery(c *Cluster, d Delivery) {
	slot.subMu.RLock()
	defer slot.subMu.RUnlock()
	for _, s := range slot.subs {
		if s.opts.Deliveries {
			lagPush(s, s.deliveries, d)
		}
		if s.opts.Events {
			lagPush(s, s.events, Event{Kind: EventDelivery, Delivery: d})
		}
	}
}

func (slot *stackSlot) publishSwitch(c *Cluster, ev SwitchEvent) {
	slot.subMu.RLock()
	defer slot.subMu.RUnlock()
	for _, s := range slot.subs {
		if s.opts.Switches {
			lagPush(s, s.switches, ev)
		}
		if s.opts.Events {
			lagPush(s, s.events, Event{Kind: EventSwitch, Switch: ev})
		}
	}
}

func (slot *stackSlot) publishView(c *Cluster, v View) {
	slot.subMu.RLock()
	defer slot.subMu.RUnlock()
	for _, s := range slot.subs {
		if s.opts.Views {
			lagPush(s, s.views, v)
		}
		if s.opts.Events {
			lagPush(s, s.events, Event{Kind: EventView, View: v})
		}
	}
}

// publishAdvice runs on the adaptation engine's goroutine (not the
// stack executor); lagPush's policies hold regardless — a Block-policy
// consumer backpressures the engine instead of the stack.
func (slot *stackSlot) publishAdvice(c *Cluster, a Advice) {
	slot.subMu.RLock()
	defer slot.subMu.RUnlock()
	for _, s := range slot.subs {
		if s.opts.Advice {
			lagPush(s, s.advice, a)
		}
		if s.opts.Events {
			lagPush(s, s.events, Event{Kind: EventAdvice, Advice: a})
		}
	}
}
