package dpu

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/vclock"
)

// TestVirtualClockCluster runs a whole cluster under discrete-event
// virtual time: broadcasts complete, total order holds, and no wall
// time is waited on.
func TestVirtualClockCluster(t *testing.T) {
	vc := vclock.NewVirtual()
	c, err := New(3, WithSeed(7), WithClock(vc), WithInitialProtocol(ProtocolSequencer))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	nodes := make([]*Node, 3)
	subs := make([]*Subscription, 3)
	for i := range subs {
		n, err := c.Node(i)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		subs[i], err = n.Subscribe(SubscribeOptions{Events: true, Buffer: 4096, Policy: Block})
		if err != nil {
			t.Fatal(err)
		}
	}

	const msgs = 20
	for i := 0; i < msgs; i++ {
		if err := nodes[i%3].Broadcast(context.Background(), []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	vc.RunFor(2 * time.Second)

	c.Close()
	for stack, sub := range subs {
		var got []string
		for ev := range sub.Events() {
			if ev.Kind == EventDelivery {
				got = append(got, string(ev.Delivery.Data))
			}
		}
		if len(got) != msgs {
			t.Fatalf("stack %d delivered %d messages, want %d", stack, len(got), msgs)
		}
	}
}

// TestVirtualClockDeterminism runs the same seeded virtual cluster
// twice and requires the identical delivery order.
func TestVirtualClockDeterminism(t *testing.T) {
	run := func() []string {
		vc := vclock.NewVirtual()
		c, err := New(3, WithSeed(42), WithClock(vc))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.SetLoss(0.05); err != nil { // loss makes the RNG stream load-bearing
			t.Fatal(err)
		}
		nodes := make([]*Node, 3)
		for i := range nodes {
			if nodes[i], err = c.Node(i); err != nil {
				t.Fatal(err)
			}
		}
		sub, err := nodes[0].Subscribe(SubscribeOptions{Events: true, Buffer: 4096, Policy: Block})
		if err != nil {
			t.Fatal(err)
		}
		// Inject broadcasts as clock events: the virtual clock serializes
		// them, so the shared fault RNG is consumed in a fixed order. (A
		// direct Broadcast from the test goroutine would wake three
		// executors concurrently and lose determinism.)
		for i := 0; i < 30; i++ {
			i := i
			vc.AfterFunc(time.Duration(i)*time.Millisecond, func() {
				nodes[i%3].Broadcast(context.Background(), []byte(fmt.Sprintf("m%d", i))) //nolint:errcheck
			})
		}
		vc.RunFor(3 * time.Second)
		c.Close()
		var got []string
		for ev := range sub.Events() {
			if ev.Kind == EventDelivery {
				got = append(got, fmt.Sprintf("%d:%s@%s", ev.Delivery.Origin, ev.Delivery.Data, ev.Delivery.At))
			}
		}
		return got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs delivered different counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at delivery %d: %q vs %q", i, a[i], b[i])
		}
	}
	if len(a) != 30 {
		t.Fatalf("delivered %d, want 30", len(a))
	}
}
