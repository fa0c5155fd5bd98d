package abcast_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/abcast"
	"repro/internal/kernel"
	"repro/internal/rp2p"
	"repro/internal/simnet"
	"repro/internal/stacktest"
	"repro/internal/vclock"
)

// These tests cover what ordering identifiers instead of payloads adds to
// abcast/ct: a payload reaches a stack only from its origin, or through a
// pull, so each test takes the payload away from one stack and checks
// what the stack, and the group, do about it. They run in virtual time.
//
// The ways a payload goes missing are the two the module's comment names.
// Its origin crashes after sending it to some peers only. Or the stack's
// epoch module does not exist yet (the stack reaches the switch later
// than its peers) and its rp2p buffer for the epoch's channel, capped at
// dropLimit messages, drops what arrives meanwhile; each test sends one
// message at a time, so a message is one payload frame.

const (
	dropLimit = 2
	nextSvc   = kernel.ServiceID("abcast/next-epoch")
)

// ctGroup starts abcast/ct at epoch 0 on n stacks in virtual time, with
// 1-ms hops.
func ctGroup(t *testing.T, n int, rpCfg rp2p.Config) (*stacktest.Cluster, *vclock.Virtual, []*sink) {
	return implGroup(t, n, abcast.CTImpl(), rpCfg)
}

// implGroup starts im at epoch 0 on n stacks in virtual time, with 1-ms
// hops.
func implGroup(t *testing.T, n int, im abcast.Impl, rpCfg rp2p.Config) (*stacktest.Cluster, *vclock.Virtual, []*sink) {
	vc := vclock.NewVirtual()
	c := substrate(t, n, simnet.Config{Clock: vc, BaseLatency: time.Millisecond}, rpCfg)
	sinks := make([]*sink, n)
	for i := range sinks {
		sinks[i] = attach(t, c, i, im, 0, abcast.ServiceImpl)
	}
	vc.RunFor(10 * time.Millisecond)
	return c, vc, sinks
}

// TestCTPayloadCrossesEachLinkOnce pins the cost of one fault-free
// broadcast in a group of three, from counters alone: the payload is on
// the wire exactly n−1 times, once per peer from its origin, and rbcast
// carries nothing but the one decision.
func TestCTPayloadCrossesEachLinkOnce(t *testing.T) {
	c, vc, sinks := ctGroup(t, 3, rp2p.Config{RTO: 5 * time.Millisecond})
	const size = 16 << 10
	delta := stacktest.CounterDelta()
	before := c.Net.Stats().Bytes
	c.Stacks[0].Call(abcast.ServiceImpl, abcast.Broadcast{Data: make([]byte, size)})
	vc.RunFor(100 * time.Millisecond)
	for i, s := range sinks {
		if got := s.snapshot(); len(got) != 1 || len(got[0].data) != size {
			t.Fatalf("stack %d delivered %d messages, want the one broadcast", i, len(got))
		}
	}
	// Everything else on the wire (ids, consensus, acks, heartbeats) is
	// far less than one more copy.
	if got := c.Net.Stats().Bytes - before; got < 2*size || got >= 3*size {
		t.Errorf("%d bytes on the wire for a %d-byte payload, want n−1 = 2 copies and change", got, size)
	}
	for _, want := range []struct {
		counter string
		n       uint64
	}{
		{"abcast.decisions", 3},        // one instance, processed on each stack
		{"rbcast.records_received", 2}, // its decision, broadcast once
		{"rbcast.records_relayed", 2},
		{"rp2p.retransmits", 0},
		{"abcast.ct.payload_pulls", 0},
	} {
		if got := delta(want.counter); got != want.n {
			t.Errorf("%s moved by %d, want %d", want.counter, got, want.n)
		}
	}
}

// TestCTOriginCrashAfterOnePeerIsPulled: the origin's payload reaches
// stack 1 only (its link to stack 2 is cut) and the origin crashes before
// anything is decided. Stacks 1 and 2 are a majority; stack 2 cannot ack
// a proposal naming the payload until it pulls it from stack 1, and both
// deliver the same sequence. Stack 2 broadcasts too: a stack with nothing
// to propose sends no estimate, and without stack 2's the instance has no
// quorum and waits for the next broadcast of a correct stack.
func TestCTOriginCrashAfterOnePeerIsPulled(t *testing.T) {
	c, vc, sinks := ctGroup(t, 3, rp2p.Config{RTO: 5 * time.Millisecond})
	c.Cut(0, 2)
	delta := stacktest.CounterDelta()
	c.Stacks[0].Call(abcast.ServiceImpl, abcast.Broadcast{Data: []byte("last-words")})
	vc.RunFor(1500 * time.Microsecond) // one hop: at stack 1, not decided
	c.Stacks[0].Crash()
	c.Stacks[2].Call(abcast.ServiceImpl, abcast.Broadcast{Data: []byte("after")})
	vc.RunFor(time.Second)
	one, two := sinks[1].snapshot(), sinks[2].snapshot()
	if len(one) != 2 || fmt.Sprint(one) != fmt.Sprint(two) {
		t.Fatalf("stack 1 delivered %v, stack 2 %v: want the same two messages", one, two)
	}
	if delta("abcast.ct.payload_pulls") == 0 {
		t.Error("stack 2 got the crashed origin's payload without a pull")
	}
}

// switchingGroup is a group of three under abcast/ct at epoch 0 in
// virtual time, able to bring its stacks to epoch 1 one at a time.
type switchingGroup struct {
	t    *testing.T
	c    *stacktest.Cluster
	vc   *vclock.Virtual
	im   abcast.Impl
	sink []*sink // sinks listen to ServiceImpl, on which both epochs' modules deliver
}

func newSwitchingGroup(t *testing.T, n int) *switchingGroup {
	vc := vclock.NewVirtual()
	g := &switchingGroup{t: t, vc: vc, im: abcast.CTImpl()}
	g.c = substrate(t, n, simnet.Config{Clock: vc, BaseLatency: time.Millisecond},
		rp2p.Config{RTO: 5 * time.Millisecond, BufferLimit: dropLimit})
	for i := 0; i < n; i++ {
		g.sink = append(g.sink, attach(t, g.c, i, g.im, 0, abcast.ServiceImpl))
	}
	vc.RunFor(10 * time.Millisecond)
	return g
}

// switchStack brings stack i to epoch 1.
func (g *switchingGroup) switchStack(i int) {
	attach(g.t, g.c, i, g.im, 1, nextSvc)
}

// send broadcasts one message from stack i in the given epoch and lets
// the group settle.
func (g *switchingGroup) send(i int, epoch uint64, data string) {
	svc := abcast.ServiceImpl
	if epoch == 1 {
		svc = nextSvc
	}
	g.c.Stacks[i].Call(svc, abcast.Broadcast{Data: []byte(data)})
	g.vc.RunFor(20 * time.Millisecond)
}

// delivered returns what stack i delivered with the given prefix, in order.
func (g *switchingGroup) delivered(i int, prefix string) []string {
	var out []string
	for _, d := range g.sink[i].snapshot() {
		if strings.HasPrefix(d.data, prefix) {
			out = append(out, d.data)
		}
	}
	return out
}

func wantSeq(t *testing.T, what string, got []string, want ...string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s delivered %v, want %v", what, got, want)
	}
}

// TestCTPayloadDroppedAcrossSwitchIsPulled: stacks 0 and 1 switch to
// epoch 1 and order five messages there while stack 2 still is in epoch
// 0; its rp2p buffer keeps two of the five payload frames and drops three.
// When stack 2 switches it learns the five decisions from the consensus
// cache, delivers what it holds, suspends at the first id it misses,
// pulls the rest from its peers and ends with the same sequence.
func TestCTPayloadDroppedAcrossSwitchIsPulled(t *testing.T) {
	g := newSwitchingGroup(t, 3)
	g.send(2, 0, "old-0") // epoch 0 is live on all three
	delta := stacktest.CounterDelta()
	g.switchStack(0)
	g.switchStack(1)
	var want []string
	for k := 0; k < 5; k++ {
		want = append(want, fmt.Sprintf("new-%d", k))
		g.send(k%2, 1, want[k])
	}
	wantSeq(t, "stack 0", g.delivered(0, "new-"), want...)
	if got := delta("rp2p.buffer_drops"); got != 5-dropLimit {
		t.Fatalf("rp2p.buffer_drops moved by %d, want %d", got, 5-dropLimit)
	}

	g.switchStack(2)
	g.vc.RunFor(50 * time.Millisecond)
	wantSeq(t, "stack 2 before the pull", g.delivered(2, "new-"), want[:dropLimit]...)
	if delta("abcast.ct.payload_waits") == 0 || delta("abcast.ct.payload_pulls") != 0 {
		t.Fatalf("payload_waits %d, payload_pulls %d: want a suspended delivery and no pull yet",
			delta("abcast.ct.payload_waits"), delta("abcast.ct.payload_pulls"))
	}
	g.vc.RunFor(time.Second)
	wantSeq(t, "stack 2 after the pull", g.delivered(2, "new-"), want...)
	if got := delta("abcast.ct.payload_pulls"); got != 1 {
		t.Errorf("abcast.ct.payload_pulls moved by %d, want 1", got)
	}
	g.send(2, 1, "new-after")
	for i := 0; i < 3; i++ {
		wantSeq(t, fmt.Sprintf("stack %d", i), g.delivered(i, "new-"), append(want, "new-after")...)
	}
}

// TestCTUnservablePullHaltsTheStack: as above, but stack 2 switches only
// after its peers have processed more decisions than they retain
// payloads for. Both answer its pull without the payload; the stack
// halts itself, with one count, and the survivors keep ordering.
func TestCTUnservablePullHaltsTheStack(t *testing.T) {
	g := newSwitchingGroup(t, 3)
	delta := stacktest.CounterDelta()
	g.switchStack(0)
	g.switchStack(1)
	const decisions = 256 + 10 // past the retention of maxDecBuf decisions
	for k := 0; k < decisions; k++ {
		g.send(k%2, 1, fmt.Sprintf("new-%d", k))
	}
	if got := delta("abcast.decisions"); got != 2*decisions {
		t.Fatalf("abcast.decisions moved by %d, want one per message and stack (%d)", got, 2*decisions)
	}
	g.switchStack(2)
	g.vc.RunFor(time.Second)
	if g.c.Stacks[2].Running() {
		t.Fatal("stack 2 still runs although no peer can serve the payload it misses")
	}
	if got := delta("abcast.ct.payload_lost"); got != 1 {
		t.Errorf("abcast.ct.payload_lost moved by %d, want 1", got)
	}
	wantSeq(t, "stack 2", g.delivered(2, "new-"), "new-0", "new-1")
	g.send(1, 1, "new-after")
	for i := 0; i < 2; i++ {
		if got := g.delivered(i, "new-"); len(got) != decisions+1 || got[decisions] != "new-after" {
			t.Fatalf("stack %d delivered %d messages, the last %q: the survivors stopped ordering", i, len(got), got[len(got)-1])
		}
	}
}

// TestCTOrphanIdIsNeverDecided: the origin's third message reaches no
// correct stack (both peers drop its frame), but its id reached the
// coordinator inside the origin's estimate before the origin crashed.
// No correct stack ever holds the payload, so the id must never be
// decided — and must not keep the group from ordering what it does hold.
func TestCTOrphanIdIsNeverDecided(t *testing.T) {
	g := newSwitchingGroup(t, 3)
	g.switchStack(2)
	for k := 0; k < dropLimit+1; k++ {
		g.send(2, 1, fmt.Sprintf("new-%d", k)) // the last one is dropped by both peers
	}
	g.c.Stacks[2].Crash()
	g.switchStack(0)
	g.switchStack(1)
	g.vc.RunFor(time.Second)
	// Stack 2 proposed one message an instance, so the orphan id sits in
	// its estimate for instance 2: run the group up to and past it.
	want := []string{"new-0", "new-1"}
	for k := 0; k < 3; k++ {
		want = append(want, fmt.Sprintf("new-after-%d", k))
		g.send(k%2, 1, want[len(want)-1])
	}
	g.vc.RunFor(time.Second)
	for i := 0; i < 2; i++ {
		wantSeq(t, fmt.Sprintf("stack %d", i), g.delivered(i, "new-"), want...)
	}
}

// TestCTUnheldProposalIsPulled: with stack 1 crashed, stacks 0 and 2 are
// the majority, so nothing is decided without stack 2's ack — and stack 2
// dropped the frame of the very message the coordinator proposes. No
// decision will ever tell it so; it must pull the payload on the strength
// of the proposal it cannot ack, or the group stops ordering for good.
func TestCTUnheldProposalIsPulled(t *testing.T) {
	g := newSwitchingGroup(t, 3)
	g.c.Stacks[1].Crash()
	g.switchStack(0)
	want := []string{"new-0", "new-1", "new-2"}
	for _, m := range want {
		g.send(0, 1, m) // stack 2 keeps the first dropLimit frames
	}
	delta := stacktest.CounterDelta()
	g.switchStack(2)
	g.send(2, 1, "new-own") // gives stack 2 a proposal of its own for the instance that orders new-2
	g.vc.RunFor(time.Second)
	for _, i := range []int{0, 2} {
		wantSeq(t, fmt.Sprintf("stack %d", i), g.delivered(i, "new-"), append(want, "new-own")...)
	}
	if delta("abcast.ct.payload_pulls") == 0 || delta("abcast.ct.payload_waits") != 0 {
		t.Errorf("payload_pulls %d, payload_waits %d: want the pull to come from the unacked proposal, not from a decision",
			delta("abcast.ct.payload_pulls"), delta("abcast.ct.payload_waits"))
	}
}
