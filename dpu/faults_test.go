package dpu_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/dpu"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// TestCorruptionToleratedEndToEnd drives a cluster under 5% byte-level
// corruption: the per-frame checksum rejects every mangled datagram
// (wire.frames_rejected grows), rp2p retransmits cover the loss, and
// the group still delivers everything exactly once in total order.
func TestCorruptionToleratedEndToEnd(t *testing.T) {
	ctx := context.Background()
	c, err := dpu.New(3, dpu.WithSeed(31))
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

// TestFaultSurface: every fault method of a cluster resolves one
// surface. The simulated LAN always has it; an external transport has
// it exactly when it is a transport.Faulty decorator, and without one
// the methods report ErrUnsupported instead of silently doing nothing.
func TestFaultSurface(t *testing.T) {
	udp := func(t *testing.T) transport.Transport {
		tr, err := transport.NewUDP(transport.UDPConfig{Book: udpBook(t, 2)})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	cases := []struct {
		name    string
		opts    func(t *testing.T) []dpu.Option
		surface bool
	}{
		{"sim", func(*testing.T) []dpu.Option { return nil }, true},
		{"raw-udp", func(t *testing.T) []dpu.Option {
			return []dpu.Option{dpu.WithTransport(udp(t))}
		}, false},
		{"faulty-udp", func(t *testing.T) []dpu.Option {
			return []dpu.Option{dpu.WithTransport(transport.Faulty(udp(t), transport.FaultConfig{Seed: 3}))}
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := dpu.New(2, append(tc.opts(t), dpu.WithSeed(1))...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			calls := []struct {
				name string
				call func() error
			}{
				{"SetLoss", func() error { return c.SetLoss(0) }},
				{"SetCorrupt", func() error { return c.SetCorrupt(0) }},
				{"SetReorder", func() error { return c.SetReorder(0) }},
				{"SetBurst", func() error { return c.SetBurst(0, 0) }},
				{"PartitionLink", func() error { return c.PartitionLink(0, 1) }},
				{"HealLink", func() error { return c.HealLink(0, 1) }},
				{"PartitionOneWay", func() error { return c.PartitionOneWay(0, 1) }},
				{"HealOneWay", func() error { return c.HealOneWay(0, 1) }},
				{"FaultStats", func() error { _, err := c.FaultStats(); return err }},
			}
			for _, k := range calls {
				err := k.call()
				if tc.surface && err != nil {
					t.Errorf("%s: %v", k.name, err)
				}
				if !tc.surface && !errors.Is(err, dpu.ErrUnsupported) {
					t.Errorf("%s without a fault surface: %v, want ErrUnsupported", k.name, err)
				}
			}
			if !tc.surface {
				return
			}
			n, err := c.Node(0)
			if err != nil {
				t.Fatal(err)
			}
			col := collectOn(t, n)
			if err := n.Broadcast(context.Background(), []byte("counted")); err != nil {
				t.Fatal(err)
			}
			waitForMarker(t, map[int]*collector{0: col}, "0:counted")
			if st, _ := c.FaultStats(); st.Passed == 0 {
				t.Errorf("FaultStats counted nothing after a delivered broadcast: %+v", st)
			}
		})
	}
}

// TestOneWayPartitionAndHeal: an asymmetric cut blocks exactly one
// direction (the decorator counts the blocked datagrams) and healing
// restores agreement.
func TestOneWayPartitionAndHeal(t *testing.T) {
	ctx := context.Background()
	c, err := dpu.New(3, dpu.WithSeed(37))
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
