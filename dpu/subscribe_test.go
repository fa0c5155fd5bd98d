package dpu_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/dpu"
)

// witness registers a second, roomy subscription on the stack. Taken
// after the subscription under test, it is published after it within
// each pump event, so what it has seen bounds what the first was offered.
func witness(t *testing.T, n *dpu.Node) *dpu.Subscription {
	t.Helper()
	wit, err := n.Subscribe(dpu.SubscribeOptions{Deliveries: true, Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(wit.Close)
	return wit
}

// TestSubscriptionDropOldest fills a 4-slot buffer with 10 deliveries
// and asserts the drop-oldest policy: 6 counted drops, and the buffer
// holds the newest 4 events in order.
func TestSubscriptionDropOldest(t *testing.T) {
	c, err := dpu.New(2, dpu.WithSeed(41))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n0, err := c.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n0.Subscribe(dpu.SubscribeOptions{Deliveries: true, Buffer: 4, Policy: dpu.DropOldest})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	wit := witness(t, n0)

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	n1, err := c.Node(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := n1.Broadcast(ctx, []byte(fmt.Sprintf("m-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// The witness is published after the subscription inside the same
	// pump event, so once it has all 10 the subscription's bookkeeping
	// for all 10 is complete.
	drainSub(t, wit, 10)

	if got := sub.Dropped(); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
	for i := 6; i < 10; i++ {
		select {
		case d := <-sub.Deliveries():
			if want := fmt.Sprintf("m-%d", i); string(d.Data) != want {
				t.Errorf("buffered delivery = %q, want %q", d.Data, want)
			}
		case <-time.After(timeout):
			t.Fatal("buffered delivery missing")
		}
	}
	select {
	case d := <-sub.Deliveries():
		t.Errorf("unexpected extra delivery %q", d.Data)
	default:
	}
}

// TestSubscriptionBlock asserts the Block policy: nothing is dropped
// and the stack stalls against the full buffer until the consumer
// drains — then every event comes through in order.
func TestSubscriptionBlock(t *testing.T) {
	c, err := dpu.New(2, dpu.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n0, err := c.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n0.Subscribe(dpu.SubscribeOptions{Deliveries: true, Buffer: 2, Policy: dpu.Block})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	wit := witness(t, n0)

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	n1, err := c.Node(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := n1.Broadcast(ctx, []byte(fmt.Sprintf("b-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// The subscription publish precedes the witness in stack 0's pump:
	// events 0 and 1 pass through, event 2 blocks the executor, so the
	// witness sees exactly two deliveries and then stalls.
	drainSub(t, wit, 2)
	select {
	case d := <-wit.Deliveries():
		t.Fatalf("witness advanced past the blocked publish: %q", d.Data)
	case <-time.After(300 * time.Millisecond):
	}

	// Draining the subscription releases the stack; all five events
	// arrive in order with zero drops.
	for i := 0; i < 5; i++ {
		select {
		case d := <-sub.Deliveries():
			if want := fmt.Sprintf("b-%d", i); string(d.Data) != want {
				t.Errorf("delivery %d = %q, want %q", i, d.Data, want)
			}
		case <-time.After(timeout):
			t.Fatalf("delivery %d missing", i)
		}
	}
	if got := sub.Dropped(); got != 0 {
		t.Errorf("Dropped = %d under Block", got)
	}
	drainSub(t, wit, 3) // the sibling catches up too
}

// TestSubscriptionCloseUnblocksPublisher closes a subscription while
// the stack is blocked publishing into it and checks the cluster keeps
// working.
func TestSubscriptionCloseUnblocksPublisher(t *testing.T) {
	c, err := dpu.New(2, dpu.WithSeed(43))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n0, err := c.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n0.Subscribe(dpu.SubscribeOptions{Deliveries: true, Buffer: 1, Policy: dpu.Block})
	if err != nil {
		t.Fatal(err)
	}
	wit := witness(t, n0)
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	n1, err := c.Node(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := n1.Broadcast(ctx, []byte(fmt.Sprintf("x-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	drainSub(t, wit, 1) // the publisher is now blocked on event 2
	sub.Close()         // must unblock it
	drainSub(t, wit, 2) // remaining events flow again
	for range sub.Deliveries() {
		// Buffered events stay readable; the loop must end on close.
	}
	// The stack still serves new traffic.
	if err := n0.Broadcast(ctx, []byte("after")); err != nil {
		t.Fatal(err)
	}
	drainSub(t, wit, 1)
}

// TestSubscriptionUnselectedStreamsClosed checks that a stream not
// requested in SubscribeOptions is closed instead of nil, so ranging
// over it ends instead of blocking forever.
func TestSubscriptionUnselectedStreamsClosed(t *testing.T) {
	c, err := dpu.New(2, dpu.WithSeed(44))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n0, err := c.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n0.Subscribe(dpu.SubscribeOptions{Deliveries: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, ok := <-sub.Switches(); ok {
		t.Error("unselected Switches stream not closed")
	}
	if _, ok := <-sub.Views(); ok {
		t.Error("unselected Views stream not closed")
	}
}

// TestSubscriptionSwitchStream receives switch events through a
// subscription.
func TestSubscriptionSwitchStream(t *testing.T) {
	c, err := dpu.New(3, dpu.WithSeed(45))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n2, err := c.Node(2)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n2.Subscribe(dpu.SubscribeOptions{Switches: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if _, err := c.ChangeProtocolAll(ctx, dpu.ProtocolSequencer); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-sub.Switches():
		if ev.Stack != 2 || ev.Epoch != 1 || ev.Protocol != dpu.ProtocolSequencer {
			t.Errorf("switch event = %+v", ev)
		}
	case <-time.After(timeout):
		t.Fatal("no switch event on subscription")
	}
}

// TestSubscribePrerequisites pins which streams need an option the
// cluster was not built with: a stream that could never fire is refused
// up front, while the unified Events stream just omits those kinds.
func TestSubscribePrerequisites(t *testing.T) {
	c := newGroup(t, 2, dpu.WithSeed(46))
	for _, tc := range []struct {
		name string
		opts dpu.SubscribeOptions
		want error
	}{
		{"views without membership", dpu.SubscribeOptions{Views: true}, dpu.ErrNoMembership},
		{"advice without adaptive", dpu.SubscribeOptions{Advice: true}, dpu.ErrNoAdaptive},
		{"events", dpu.SubscribeOptions{Events: true}, nil},
	} {
		sub, err := c.node[0].Subscribe(tc.opts)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: Subscribe = %v, want %v", tc.name, err, tc.want)
		}
		if sub != nil {
			sub.Close()
		}
	}
}
