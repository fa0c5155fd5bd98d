package dpu_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/dpu"
	"repro/internal/transport"
)

func TestNodeHandleValidation(t *testing.T) {
	c, err := dpu.New(3, dpu.WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Node(-1); !errors.Is(err, dpu.ErrOutOfRange) {
		t.Errorf("Node(-1) = %v, want ErrOutOfRange", err)
	}
	if _, err := c.Node(3); !errors.Is(err, dpu.ErrOutOfRange) {
		t.Errorf("Node(3) = %v, want ErrOutOfRange", err)
	}
	n, err := c.Node(2)
	if err != nil {
		t.Fatal(err)
	}
	if n.Index() != 2 {
		t.Errorf("Index = %d", n.Index())
	}
	if err := n.Crash(); err != nil {
		t.Fatal(err)
	}
	// An existing handle re-validates on use.
	if err := n.Broadcast(context.Background(), []byte("x")); !errors.Is(err, dpu.ErrNotRunning) {
		t.Errorf("Broadcast on crashed stack = %v, want ErrNotRunning", err)
	}
	if _, err := c.Node(2); !errors.Is(err, dpu.ErrNotRunning) {
		t.Errorf("Node(crashed) = %v, want ErrNotRunning", err)
	}
}

func TestNodeRemoteStack(t *testing.T) {
	tr, err := transport.NewUDP(transport.UDPConfig{Book: udpBook(t, 3)})
	if err != nil {
		t.Fatal(err)
	}
	c, err := dpu.New(3, dpu.WithTransport(tr), dpu.WithLocalStacks(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Node(0); !errors.Is(err, dpu.ErrRemoteStack) {
		t.Errorf("Node(remote) = %v, want ErrRemoteStack", err)
	}
	if _, err := c.Node(1); err != nil {
		t.Errorf("Node(local) = %v", err)
	}
}

func TestNodeChangeProtocolReturnsCompletedEvent(t *testing.T) {
	c, err := dpu.New(3, dpu.WithSeed(22))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	n1, err := c.Node(1)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := n1.ChangeProtocol(ctx, dpu.ProtocolSequencer)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Stack != 1 || ev.Epoch != 1 || ev.Protocol != dpu.ProtocolSequencer {
		t.Errorf("event = %+v", ev)
	}
	st, err := n1.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 1 || st.Protocol != dpu.ProtocolSequencer {
		t.Errorf("status after switch = %+v", st)
	}
	// A second switch advances the epoch again.
	ev2, err := n1.ChangeProtocol(ctx, dpu.ProtocolToken)
	if err != nil {
		t.Fatal(err)
	}
	if ev2.Epoch != 2 || ev2.Protocol != dpu.ProtocolToken {
		t.Errorf("second event = %+v", ev2)
	}
}

func TestNodeChangeProtocolUnknownNameImmediate(t *testing.T) {
	c, err := dpu.New(2, dpu.WithSeed(23))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n0, err := c.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if _, err := n0.ChangeProtocol(ctx, "abcast/nope"); !errors.Is(err, dpu.ErrUnknownProtocol) {
		t.Fatalf("ChangeProtocol(unknown) = %v, want ErrUnknownProtocol", err)
	}
	// Nothing happened: the epoch is untouched and the layer works.
	st, err := n0.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 0 {
		t.Errorf("epoch advanced on unknown protocol: %+v", st)
	}
}

func TestNodeChangeProtocolHonorsContext(t *testing.T) {
	// One local stack of a three-stack group whose peers are dead
	// reserved ports: the change can never complete, so the call must
	// come back on ctx expiry rather than hang.
	tr, err := transport.NewUDP(transport.UDPConfig{Book: udpBook(t, 3)})
	if err != nil {
		t.Fatal(err)
	}
	c, err := dpu.New(3, dpu.WithTransport(tr), dpu.WithLocalStacks(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n0, err := c.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := n0.ChangeProtocol(ctx, dpu.ProtocolSequencer); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ChangeProtocol on a stalled group = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("ctx expiry did not unblock promptly")
	}
}

func TestNodeBroadcastBackpressure(t *testing.T) {
	c, err := dpu.New(3, dpu.WithSeed(24), dpu.WithMaxOutstanding(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Kill the majority: consensus stalls, so broadcasts can never be
	// delivered back and the outstanding window never drains.
	for _, i := range []int{1, 2} {
		n, err := c.Node(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Crash(); err != nil {
			t.Fatal(err)
		}
	}
	n0, err := c.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	// Two slots: the first two sends are admitted immediately.
	if err := n0.Broadcast(ctx, []byte("a")); err != nil {
		t.Fatalf("first send: %v", err)
	}
	if err := n0.Broadcast(ctx, []byte("b")); err != nil {
		t.Fatalf("second send: %v", err)
	}
	// The third must block on the full window until the context expires.
	if err := n0.Broadcast(ctx, []byte("c")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("third send = %v, want DeadlineExceeded", err)
	}
}

func TestNodeBroadcastWindowDrains(t *testing.T) {
	// With a healthy group the tiny window recycles: many more sends
	// than the window size all go through.
	c := newGroup(t, 3, dpu.WithSeed(25), dpu.WithMaxOutstanding(2))
	n0 := c.node[0]
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	const k = 20
	for i := 0; i < k; i++ {
		if err := n0.Broadcast(ctx, []byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	c.drain(t, 1, k)
}

func TestWaitForEpochBarrier(t *testing.T) {
	c, err := dpu.New(3, dpu.WithSeed(26))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	n0, err := c.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := n0.ChangeProtocol(ctx, dpu.ProtocolToken)
	if err != nil {
		t.Fatal(err)
	}
	// Every stack reaches the epoch; an already-reached epoch returns
	// immediately.
	for i := 0; i < 3; i++ {
		n, err := c.Node(i)
		if err != nil {
			t.Fatal(err)
		}
		st, err := n.WaitForEpoch(ctx, ev.Epoch)
		if err != nil {
			t.Fatalf("stack %d: %v", i, err)
		}
		if st.Epoch < ev.Epoch || st.Protocol != dpu.ProtocolToken {
			t.Errorf("stack %d status = %+v", i, st)
		}
	}
	// A future epoch times out with the context.
	short, cancel2 := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel2()
	if _, err := n0.WaitForEpoch(short, ev.Epoch+5); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("future epoch wait = %v, want DeadlineExceeded", err)
	}
}

func TestChangeProtocolAll(t *testing.T) {
	c, err := dpu.New(3, dpu.WithSeed(27))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	ev, err := c.ChangeProtocolAll(ctx, dpu.ProtocolSequencer)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Epoch != 1 || ev.Protocol != dpu.ProtocolSequencer {
		t.Errorf("event = %+v", ev)
	}
	// Returns only after every local stack completed: statuses agree
	// without any extra waiting.
	for i := 0; i < 3; i++ {
		n, err := c.Node(i)
		if err != nil {
			t.Fatal(err)
		}
		st, err := n.Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Epoch != 1 || st.Protocol != dpu.ProtocolSequencer {
			t.Errorf("stack %d status = %+v", i, st)
		}
	}
	if _, err := c.ChangeProtocolAll(ctx, "abcast/nope"); !errors.Is(err, dpu.ErrUnknownProtocol) {
		t.Errorf("ChangeProtocolAll(unknown) = %v, want ErrUnknownProtocol", err)
	}
}

func TestLinkFaultAPI(t *testing.T) {
	// Simulated network: link faults work and bounds are checked.
	c, err := dpu.New(3, dpu.WithSeed(28))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.PartitionLink(0, 2); err != nil {
		t.Errorf("PartitionLink over simnet: %v", err)
	}
	if err := c.HealLink(0, 2); err != nil {
		t.Errorf("HealLink over simnet: %v", err)
	}
	if err := c.PartitionLink(0, 9); !errors.Is(err, dpu.ErrOutOfRange) {
		t.Errorf("PartitionLink(0,9) = %v, want ErrOutOfRange", err)
	}

	// External transport: ErrUnsupported instead of a silent no-op.
	tr, err := transport.NewUDP(transport.UDPConfig{Book: udpBook(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	cu, err := dpu.New(2, dpu.WithTransport(tr))
	if err != nil {
		t.Fatal(err)
	}
	defer cu.Close()
	if err := cu.PartitionLink(0, 1); !errors.Is(err, dpu.ErrUnsupported) {
		t.Errorf("PartitionLink over transport = %v, want ErrUnsupported", err)
	}
	if err := cu.HealLink(0, 1); !errors.Is(err, dpu.ErrUnsupported) {
		t.Errorf("HealLink over transport = %v, want ErrUnsupported", err)
	}
}

func TestIndexAccessorsBoundsChecked(t *testing.T) {
	c, err := dpu.New(2, dpu.WithSeed(29))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Out-of-range indexes must not panic.
	if st := c.Stack(-5); st != nil {
		t.Error("Stack(-5) != nil")
	}
	if _, err := c.Node(99); !errors.Is(err, dpu.ErrOutOfRange) {
		t.Errorf("Node(99) = %v, want ErrOutOfRange", err)
	}
}

func TestNodeMembershipRequiresOption(t *testing.T) {
	c, err := dpu.New(3, dpu.WithSeed(30))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n0, err := c.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := n0.Leave(1); !errors.Is(err, dpu.ErrNoMembership) {
		t.Errorf("Leave without WithMembership = %v, want ErrNoMembership", err)
	}
	ctx := context.Background()
	if _, err := n0.Evict(ctx, 1); !errors.Is(err, dpu.ErrNoMembership) {
		t.Errorf("Evict without WithMembership = %v, want ErrNoMembership", err)
	}
	if _, err := c.AddNode(ctx, ""); !errors.Is(err, dpu.ErrNoMembership) {
		t.Errorf("AddNode without WithMembership = %v, want ErrNoMembership", err)
	}
	if err := c.AddNodeAsync("", func(*dpu.Node, error) {}); !errors.Is(err, dpu.ErrNoMembership) {
		t.Errorf("AddNodeAsync without WithMembership = %v, want ErrNoMembership", err)
	}
}

func TestNodeCallsAfterClose(t *testing.T) {
	c, err := dpu.New(2, dpu.WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	n0, err := c.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	ctx := context.Background()
	if err := n0.Broadcast(ctx, []byte("x")); !errors.Is(err, dpu.ErrNotRunning) {
		t.Errorf("Broadcast after Close = %v, want ErrNotRunning", err)
	}
	if _, err := n0.ChangeProtocol(ctx, dpu.ProtocolSequencer); !errors.Is(err, dpu.ErrNotRunning) {
		t.Errorf("ChangeProtocol after Close = %v, want ErrNotRunning", err)
	}
}
