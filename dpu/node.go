package dpu

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/gm"
	"repro/internal/kernel"
)

// Node is a validated handle on one stack hosted by this process. It is
// the primary interaction surface of the library: every blocking
// operation takes a context, broadcasts are backpressured against the
// outstanding window, and protocol switches block until the paper's
// completion moment — seqNumber advancing locally — and return it.
//
// A Node is cheap and safe to share across goroutines. Liveness is
// re-checked on every call, so a handle obtained before a crash fails
// with ErrNotRunning afterwards rather than hanging.
type Node struct {
	c  *Cluster
	id int
}

// Node returns a handle on the stack, validating the index once:
// ErrOutOfRange for an index outside [0, N()), ErrRemoteStack for a
// stack hosted by another process, ErrNotRunning for a crashed or
// closed stack.
func (c *Cluster) Node(stack int) (*Node, error) {
	if err := c.check(stack); err != nil {
		return nil, err
	}
	return &Node{c: c, id: stack}, nil
}

// Index returns the stack index this handle addresses.
func (n *Node) Index() int { return n.id }

// stack re-validates the handle and returns the underlying stack.
func (n *Node) stack() (*kernel.Stack, error) {
	s, err := n.c.slot(n.id)
	if err != nil {
		return nil, err
	}
	return s.st, nil
}

// Broadcast atomically broadcasts data from this stack: it will be
// delivered exactly once, in the same total order, on every stack.
//
// Broadcast applies backpressure: when WithMaxOutstanding of this
// stack's own broadcasts are still undelivered, the call blocks until
// the total order catches up, the context is done, or the stack stops.
func (n *Node) Broadcast(ctx context.Context, data []byte) error {
	s, err := n.c.slot(n.id)
	if err != nil {
		return err
	}
	select {
	case s.outstanding <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	case <-s.st.Done():
		return fmt.Errorf("%w: stack %d", ErrNotRunning, n.id)
	case <-n.c.closed:
		return ErrClosed
	}
	s.st.Call(core.Service, core.Broadcast{Data: envelope.Wrap(envelope.KindApp, data)})
	return nil
}

// ChangeProtocol replaces the atomic-broadcast protocol on every stack,
// on the fly, without interrupting service (Algorithm 1). The name is
// validated up front (ErrUnknownProtocol, before anything is
// broadcast); the call then blocks until the replacement completes on
// THIS stack — the moment its seqNumber advances and undelivered
// messages are reissued — and returns the resulting SwitchEvent. Other
// stacks complete at their own position of the total order; wait on
// them with WaitForEpoch, or use Cluster.ChangeProtocolAll.
//
// A request that loses the race against a concurrent change is
// transparently retried in the next epoch, so the returned event may
// carry a later epoch than the one current when the call was made.
func (n *Node) ChangeProtocol(ctx context.Context, protocol string) (SwitchEvent, error) {
	st, err := n.stack()
	if err != nil {
		return SwitchEvent{}, err
	}
	// Name validation happens in the replacement module, before it
	// broadcasts anything; an unknown name replies immediately and is
	// mapped to ErrUnknownProtocol below.
	reply := make(chan core.ChangeReply, 1)
	st.Call(core.Service, core.ChangeProtocol{
		Protocol: protocol,
		Reply:    func(r core.ChangeReply) { reply <- r },
	})
	select {
	case r := <-reply:
		if r.Err != nil {
			if errors.Is(r.Err, core.ErrUnknownProtocol) {
				return SwitchEvent{}, fmt.Errorf("%w: %q", ErrUnknownProtocol, protocol)
			}
			return SwitchEvent{}, r.Err
		}
		return SwitchEvent{
			Stack: n.id, Epoch: r.Ev.Sn, Protocol: r.Ev.Protocol,
			At: r.Ev.At, Reissued: r.Ev.Reissued,
		}, nil
	case <-ctx.Done():
		return SwitchEvent{}, ctx.Err()
	case <-st.Done():
		return SwitchEvent{}, fmt.Errorf("%w: stack %d", ErrNotRunning, n.id)
	case <-n.c.closed:
		return SwitchEvent{}, ErrClosed
	}
}

// WaitForEpoch blocks until this stack's replacement layer has reached
// the given epoch (seqNumber ≥ epoch) and returns its status. It is the
// observer-side switch barrier: a stack that did not initiate a change
// can still wait deterministically for the change to complete locally.
func (n *Node) WaitForEpoch(ctx context.Context, epoch uint64) (Status, error) {
	st, err := n.stack()
	if err != nil {
		return Status{}, err
	}
	reply := make(chan core.Status, 1)
	st.Call(core.Service, core.EpochWaitReq{
		Epoch: epoch,
		Reply: func(s core.Status) { reply <- s },
		Done:  ctx.Done(), // lets the module prune the waiter on ctx expiry
	})
	select {
	case s := <-reply:
		members := make([]int, len(s.Members))
		for i, m := range s.Members {
			members[i] = int(m)
		}
		return Status{
			Epoch: s.Sn, Protocol: s.Protocol, Undelivered: s.Undelivered,
			ViewID: s.ViewID, Members: members,
		}, nil
	case <-ctx.Done():
		return Status{}, ctx.Err()
	case <-st.Done():
		return Status{}, fmt.Errorf("%w: stack %d", ErrNotRunning, n.id)
	case <-n.c.closed:
		return Status{}, ErrClosed
	}
}

// Status returns a snapshot of this stack's replacement layer.
func (n *Node) Status(ctx context.Context) (Status, error) {
	return n.WaitForEpoch(ctx, 0)
}

// Leave removes a member from the group view, fire-and-forget. Requires
// WithMembership (ErrNoMembership otherwise). See Evict for the variant
// that blocks until the view change commits.
func (n *Node) Leave(member int) error {
	_, err := n.leave(member, nil)
	return err
}

// Evict removes a member from the group view and blocks until the
// change commits on this stack, returning the installed view. Every
// surviving member installs the identical view at the same point of the
// total order; the evicted member, if alive and locally hosted, is
// halted after publishing the view it was removed in. Requires
// WithMembership (ErrNoMembership otherwise).
func (n *Node) Evict(ctx context.Context, member int) (View, error) {
	reply := make(chan gm.Result, 1)
	s, err := n.leave(member, func(r gm.Result) { reply <- r })
	if err != nil {
		return View{}, err
	}
	r, err := await(ctx, n.c, s, reply)
	if err == nil {
		err = r.Err
	}
	if err != nil {
		return View{}, err
	}
	return publicView(r.View), nil
}

// leave validates the handle and the operand, then orders member's
// removal through this stack; reply, when non-nil, runs at the commit.
func (n *Node) leave(member int, reply func(gm.Result)) (*stackSlot, error) {
	s, err := n.c.slot(n.id)
	if err != nil {
		return nil, err
	}
	if !n.c.membership {
		return nil, fmt.Errorf("%w: enable it with WithMembership", ErrNoMembership)
	}
	if member < 0 {
		return nil, fmt.Errorf("%w: member %d", ErrOutOfRange, member)
	}
	s.st.Call(gm.Service, gm.Leave{P: kernel.Addr(member), Reply: reply})
	return s, nil
}

// await waits for the reply to a call submitted on s, giving up when
// ctx is done, the stack stops or the cluster closes.
func await[T any](ctx context.Context, c *Cluster, s *stackSlot, reply <-chan T) (T, error) {
	var zero T
	select {
	case r := <-reply:
		return r, nil
	case <-ctx.Done():
		return zero, ctx.Err()
	case <-s.st.Done():
		return zero, fmt.Errorf("%w: stack %d", ErrNotRunning, s.id)
	case <-c.closed:
		return zero, ErrClosed
	}
}

// publicView converts a gm.View into the public View type.
func publicView(v gm.View) View {
	members := make([]int, len(v.Members))
	for i, m := range v.Members {
		members[i] = int(m)
	}
	return View{ID: v.ID, Members: members}
}

// Crash kills this stack abruptly, modelling a machine crash: its
// events are discarded and it goes silent on the network. The handle
// (and every other handle on this stack) fails with ErrNotRunning
// afterwards. Crash is valid on a dead handle and then does nothing.
func (n *Node) Crash() error {
	n.c.retire(n.c.peek(n.id))
	return nil
}
