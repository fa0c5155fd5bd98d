package dpu_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/dpu"
	"repro/internal/metrics"
)

// TestCorruptionToleratedEndToEnd drives a cluster under 5% byte-level
// corruption: the per-frame checksum rejects every mangled datagram
// (wire.frames_rejected grows), rp2p retransmits cover the loss, and
// the group still delivers everything exactly once in total order.
func TestCorruptionToleratedEndToEnd(t *testing.T) {
	ctx := context.Background()
	c, err := dpu.New(3, dpu.WithSeed(31), dpu.WithFaults())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetCorrupt(0.05); err != nil {
		t.Fatal(err)
	}

	rejectedBefore := metrics.Counters()["wire.frames_rejected"]
	nodes := make(map[int]*dpu.Node)
	cols := make(map[int]*collector)
	for i := 0; i < 3; i++ {
		n, err := c.Node(i)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		cols[i] = collectOn(t, n)
	}
	if err := nodes[0].Broadcast(ctx, []byte("anchor")); err != nil {
		t.Fatal(err)
	}
	waitForMarker(t, cols, "0:anchor")
	const post = 60
	for k := 0; k < post; k++ {
		if err := nodes[k%3].Broadcast(ctx, []byte(fmt.Sprintf("m-%03d", k))); err != nil {
			t.Fatal(err)
		}
	}
	waitSuffixAgreement(t, cols, "0:anchor", post+1)

	st, err := c.FaultStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Corrupted == 0 {
		t.Fatal("corruption rate 0.05 never fired")
	}
	rejected := metrics.Counters()["wire.frames_rejected"] - rejectedBefore
	if rejected == 0 {
		t.Fatalf("no frames rejected despite %d corruptions", st.Corrupted)
	}
}

// TestFaultSurfaceRequiresWithFaults: without the decorator the
// adversarial mutators report ErrUnsupported instead of silently doing
// nothing.
func TestFaultSurfaceRequiresWithFaults(t *testing.T) {
	c, err := dpu.New(2, dpu.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetCorrupt(0.1); !errors.Is(err, dpu.ErrUnsupported) {
		t.Fatalf("SetCorrupt without WithFaults: %v, want ErrUnsupported", err)
	}
	if err := c.PartitionOneWay(0, 1); !errors.Is(err, dpu.ErrUnsupported) {
		t.Fatalf("PartitionOneWay without WithFaults: %v, want ErrUnsupported", err)
	}
	if _, err := c.FaultStats(); !errors.Is(err, dpu.ErrUnsupported) {
		t.Fatalf("FaultStats without WithFaults: %v, want ErrUnsupported", err)
	}
}

// TestOneWayPartitionAndHeal: an asymmetric cut blocks exactly one
// direction (the decorator counts the blocked datagrams) and healing
// restores agreement.
func TestOneWayPartitionAndHeal(t *testing.T) {
	ctx := context.Background()
	c, err := dpu.New(3, dpu.WithSeed(37), dpu.WithFaults())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.PartitionOneWay(0, 99); !errors.Is(err, dpu.ErrOutOfRange) {
		t.Fatalf("PartitionOneWay out of range: %v, want ErrOutOfRange", err)
	}

	nodes := make(map[int]*dpu.Node)
	cols := make(map[int]*collector)
	for i := 0; i < 3; i++ {
		n, err := c.Node(i)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		cols[i] = collectOn(t, n)
	}
	if err := c.PartitionOneWay(0, 1); err != nil {
		t.Fatal(err)
	}
	// Traffic flows around and through the cut (0→2, 2→1 remain); the
	// group keeps agreeing because rp2p acks from 1→0 still arrive and
	// rbcast relays consensus decisions across the missing direction.
	if err := nodes[2].Broadcast(ctx, []byte("during-cut")); err != nil {
		t.Fatal(err)
	}
	waitSuffixAgreement(t, cols, "2:during-cut", 1)

	if err := c.HealOneWay(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Broadcast(ctx, []byte("after-heal")); err != nil {
		t.Fatal(err)
	}
	waitSuffixAgreement(t, cols, "0:after-heal", 1)

	st, err := c.FaultStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Blocked == 0 {
		t.Fatal("the one-way cut never blocked a datagram")
	}
}
