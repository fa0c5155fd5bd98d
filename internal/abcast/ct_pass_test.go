package abcast_test

import (
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/rp2p"
	"repro/internal/stacktest"
)

// These tests pin when abcast/ct proposes: once per executor pass, from
// the flusher that ends it, with every id the pass received in the same
// proposal (up to maxBatch, 256 ids). They run in virtual time and count
// instances through counters, so no budget depends on the host.

// TestCTProposesOncePerPass: 300 broadcasts issued in one executor pass
// of one stack are ordered by ⌈300/256⌉ = 2 consensus instances — not
// one instance per arrival — and every stack delivers them in the same
// order.
func TestCTProposesOncePerPass(t *testing.T) {
	const n, msgs, maxBatch = 3, 300, 256
	c, vc, sinks := ctGroup(t, n, rp2p.Config{RTO: 5 * time.Millisecond})
	delta := stacktest.CounterDelta()
	burst(c, 0, sized(0, msgs, 8))
	vc.RunFor(time.Second)
	for i, s := range sinks {
		if got := s.count(); got != msgs {
			t.Fatalf("stack %d delivered %d messages, want %d", i, got, msgs)
		}
	}
	checkTotalOrder(t, sinks, nil)
	instances := uint64((msgs + maxBatch - 1) / maxBatch)
	if got := delta("abcast.decisions"); got != n*instances {
		t.Errorf("abcast.decisions moved by %d, want %d: %d instances, each processed on %d stacks",
			got, n*instances, instances, n)
	}
	if got := delta("consensus.rounds_started"); got != n*instances {
		t.Errorf("consensus.rounds_started moved by %d, want %d (one round per instance and stack)", got, n*instances)
	}
}

// TestCTLonePayloadProposedInItsPass: a lone payload is proposed by the
// pass that received it — the instance's first round starts before
// virtual time moves at all, so no timer is involved — and is decided
// and delivered on every stack.
func TestCTLonePayloadProposedInItsPass(t *testing.T) {
	c, vc, sinks := ctGroup(t, 3, rp2p.Config{RTO: 5 * time.Millisecond})
	delta := stacktest.CounterDelta()
	start := vc.Now()
	burst(c, 0, sized(0, 1, 8))
	vc.RunFor(0)
	if vc.Now() != start {
		t.Fatalf("virtual time moved by %v", vc.Now().Sub(start))
	}
	if got := delta("consensus.rounds_started"); got != 1 {
		t.Errorf("consensus.rounds_started moved by %d before any time passed, want 1: the origin proposes in the pass", got)
	}
	vc.RunFor(100 * time.Millisecond)
	for i, s := range sinks {
		if got := s.snapshot(); len(got) != 1 || got[0].origin != kernel.Addr(0) {
			t.Fatalf("stack %d delivered %v, want the one payload of stack 0", i, got)
		}
	}
	if got := delta("abcast.decisions"); got != 3 {
		t.Errorf("abcast.decisions moved by %d, want 3: one instance, processed on each stack", got)
	}
}
