package consensus_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/rp2p"
	"repro/internal/simnet"
	"repro/internal/stacktest"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// buildVirtual is build on a virtual clock with a fixed one-way latency:
// nothing happens between two RunFor calls, and every hop takes hop.
func buildVirtual(t *testing.T, n int, hop time.Duration) (*stacktest.Cluster, []*decLog, *vclock.Virtual) {
	vc := vclock.NewVirtual()
	c, logs := build(t, n, simnet.Config{Clock: vc, BaseLatency: hop}, fastFD())
	return c, logs, vc
}

// TestFaultFreeInstanceMessageBudget pins what one fault-free instance
// in a group of three costs, from counters alone: every stack starts
// exactly one round (nothing of round 1 or above exists), the value
// crosses the wire in two remote estimates, one proposal fan-out and one
// decision broadcast, and the whole instance is ten rp2p packets.
func TestFaultFreeInstanceMessageBudget(t *testing.T) {
	c, logs, vc := buildVirtual(t, 3, time.Millisecond)
	vc.RunFor(10 * time.Millisecond) // let the module start-up traffic settle
	delta := stacktest.CounterDelta()
	id := consensus.InstanceID{Group: 0, Seq: 0}
	val := []byte("sixteen-byte-val")
	proposeAll(c, id, [][]byte{val})
	vc.RunFor(100 * time.Millisecond)
	for i, l := range logs {
		if v, ok := l.get(id); !ok || string(v) != string(val) {
			t.Fatalf("stack %d decided %q (%v), want %q", i, v, ok, val)
		}
	}
	for _, want := range []struct {
		counter string
		n       uint64
		what    string
	}{
		{"consensus.rounds_started", 3, "one round per stack, none of round >= 1"},
		{"consensus.value_bytes_sent", uint64(6 * len(val)), "2 remote estimates + proposal to 2 + decision to 2"},
		{"rbcast.records_received", 2, "exactly one decision broadcast"},
		{"rp2p.packets_sent", 10, "2 estimates, 2 proposals, 2 acks, decision to 2 and relayed by 2"},
		{"rp2p.retransmits", 0, "a 1-ms hop is far inside the retransmission timeout"},
		{"fd.suspect_events", 0, "fault-free"},
	} {
		if got := delta(want.counter); got != want.n {
			t.Errorf("%s moved by %d, want %d (%s)", want.counter, got, want.n, want.what)
		}
	}
}

// roundOf asks a stack's module which round it is in for an instance.
func roundOf(t *testing.T, c *stacktest.Cluster, stack int, id consensus.InstanceID) (round uint64, live bool) {
	t.Helper()
	c.OnSync(stack, func() {
		c.Stacks[stack].CallSync(consensus.Service, consensus.InspectReq{Reply: func(in consensus.Inspect) {
			info, ok := in.Instances[id]
			round, live = info.Round, ok
		}})
	})
	return round, live
}

// TestLazyRoundsSurviveCoordinatorCrashAfterMinorityProposal: n = 5, the
// round-0 coordinator's proposal reaches stacks 1 and 2 only (it is cut
// off from 3 and 4) and it crashes before their acks arrive. The ackers
// must sit in round 0 — that is the lazy rule — until the nacks of 3 and
// 4, who suspect the coordinator, bring them to round 1; there the value
// two of them adopted outranks every initial estimate and is decided.
func TestLazyRoundsSurviveCoordinatorCrashAfterMinorityProposal(t *testing.T) {
	const hop = time.Millisecond
	c, logs, vc := buildVirtual(t, 5, hop)
	c.Cut(0, 3)
	c.Cut(0, 4)
	vc.RunFor(10 * time.Millisecond)
	id := consensus.InstanceID{Group: 0, Seq: 0}
	vals := make([][]byte, 5)
	for i := range vals {
		vals[i] = []byte(fmt.Sprintf("v-%d", i))
	}
	proposeAll(c, id, vals)
	// Estimates land after one hop, the proposal after two, the acks
	// after three: crash the coordinator in between.
	vc.RunFor(2*hop + hop/2)
	c.Stacks[0].Crash()

	vc.RunFor(10 * time.Millisecond) // the acks are lost; nobody suspects yet
	for _, i := range []int{1, 2, 3, 4} {
		if r, live := roundOf(t, c, i, id); !live || r != 0 {
			t.Fatalf("stack %d: round %d (live %v) before any suspicion, want it waiting in round 0", i, r, live)
		}
	}
	vc.RunFor(time.Second)
	for _, i := range []int{1, 2, 3, 4} {
		v, ok := logs[i].get(id)
		if !ok {
			t.Fatalf("stack %d never decided: the lazy round rule lost liveness", i)
		}
		if string(v) != "v-0" {
			t.Fatalf("stack %d decided %q, want the crashed coordinator's proposal %q that stacks 1 and 2 adopted", i, v, "v-0")
		}
	}
}

// TestReadinessGatesProposalAndAck drives the indirect-consensus rule
// with a predicate the test controls: while the coordinator holds
// nothing it does not propose; once it does, a participant that lacks
// the value does not ack, so two of three stacks decide without it, and
// the third adopts nothing until Recheck finds the value held.
func TestReadinessGatesProposalAndAck(t *testing.T) {
	c, _, vc := buildVirtual(t, 3, time.Millisecond)
	const group = 7
	held := make([]bool, 3) // touched on each stack's executor only
	logs := make([]*decLog, 3)
	for i := range logs {
		i := i
		logs[i] = newDecLog()
		c.Stacks[i].Call(consensus.Service, consensus.Listen{Group: group, Handler: logs[i].add,
			Ready: func([]byte) bool { return held[i] }})
	}
	id := consensus.InstanceID{Group: group, Seq: 0}
	proposeAll(c, id, [][]byte{[]byte("ids")})
	vc.RunFor(50 * time.Millisecond)
	for i, l := range logs {
		if l.count() != 0 {
			t.Fatalf("stack %d decided although no stack holds the value", i)
		}
	}
	release := func(i int) {
		c.OnSync(i, func() { held[i] = true })
		c.Stacks[i].Call(consensus.Service, consensus.Recheck{Group: group})
	}
	release(0) // the coordinator: it proposes, acks itself, and waits
	vc.RunFor(50 * time.Millisecond)
	for i, l := range logs {
		if l.count() != 0 {
			t.Fatalf("stack %d decided on the coordinator's ack alone", i)
		}
	}
	release(1) // a majority holds the value now
	vc.RunFor(50 * time.Millisecond)
	for i, l := range logs {
		if _, ok := l.get(id); !ok {
			t.Fatalf("stack %d: no decision although a majority holds the value", i)
		}
	}
}

// TestUnreadyEstimateNeitherWinsNorBlocks: n = 5, and estimates name
// something no live stack holds (their senders crashed). While such an
// estimate could outrank the ready ones — it carries the highest
// timestamp — the coordinator must neither propose it nor pass it over;
// once the ready estimates are a majority by themselves it proposes the
// best of those. Among equals the unready one simply never wins.
func TestUnreadyEstimateNeitherWinsNorBlocks(t *testing.T) {
	c, _, vc := buildVirtual(t, 5, time.Millisecond)
	const group = 7
	logs := make([]*decLog, 5)
	for i := range logs {
		logs[i] = newDecLog()
		c.Stacks[i].Call(consensus.Service, consensus.Listen{Group: group, Handler: logs[i].add,
			Ready: func(v []byte) bool { return string(v) != "orphan" }})
	}
	propose := func(id consensus.InstanceID, i int, v string) {
		c.Stacks[i].Call(consensus.Service, consensus.Propose{ID: id, Value: []byte(v)})
		vc.RunFor(10 * time.Millisecond)
	}
	decided := func(id consensus.InstanceID, want string) {
		t.Helper()
		for _, i := range []int{0, 2, 3, 4} {
			if v, ok := logs[i].get(id); !ok || string(v) != want {
				t.Fatalf("instance %d, stack %d: decided %q (%v), want %q", id.Seq, i, v, ok, want)
			}
		}
	}
	// Equal timestamps: stack 1's estimate has the lowest address, which
	// is the tie-break, and is passed over for the first ready one.
	first := consensus.InstanceID{Group: group, Seq: 0}
	propose(first, 1, "orphan")
	propose(first, 2, "held-by-2")
	if logs[0].count() != 0 {
		t.Fatal("the coordinator (which proposed nothing itself) decided on two estimates of five")
	}
	propose(first, 3, "held-by-3")
	decided(first, "held-by-2")

	// A higher timestamp, sent the way stack 1's estimate would be had it
	// adopted "orphan" in round 4 before crashing: it outranks the ready
	// estimates, so a majority of arrived estimates is not enough; a
	// majority of ready ones is, and "orphan" cannot have been locked or
	// one of them would carry it.
	second := consensus.InstanceID{Group: group, Seq: 1}
	est := wire.NewWriter(32)
	est.Byte(0).Uvarint(second.Group).Uvarint(second.Seq).Uvarint(0).Uvarint(5).Raw([]byte("orphan"))
	c.Stacks[1].Call(rp2p.Service, rp2p.Send{To: 0, Channel: "cons", Data: est.Bytes()})
	vc.RunFor(10 * time.Millisecond)
	c.Stacks[1].Crash()
	propose(second, 2, "held-by-2")
	propose(second, 3, "held-by-3")
	if _, ok := logs[0].get(second); ok {
		t.Fatal("the coordinator passed over an unready estimate that outranks the ready ones")
	}
	propose(second, 4, "held-by-4")
	decided(second, "held-by-2")
}
