package consensus_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/fd"
	"repro/internal/rbcast"
	"repro/internal/rp2p"
	"repro/internal/simnet"
	"repro/internal/stacktest"
	"repro/internal/udp"
)

const timeout = 15 * time.Second

// decLog records decisions per stack.
type decLog struct {
	mu  sync.Mutex
	dec map[consensus.InstanceID][]byte
}

func newDecLog() *decLog { return &decLog{dec: make(map[consensus.InstanceID][]byte)} }

func (l *decLog) add(d consensus.Decide) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.dec[d.ID]; !dup {
		l.dec[d.ID] = d.Value
	}
}

func (l *decLog) get(id consensus.InstanceID) ([]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.dec[id]
	return v, ok
}

func (l *decLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.dec)
}

func build(t *testing.T, n int, netCfg simnet.Config, fdCfg fd.Config) (*stacktest.Cluster, []*decLog) {
	c := stacktest.New(t, n, netCfg, nil)
	c.Reg.MustRegister(udp.Factory(c.Tr))
	c.Reg.MustRegister(rp2p.Factory(rp2p.Config{RTO: 5 * time.Millisecond}))
	c.Reg.MustRegister(rbcast.Factory(rbcast.Config{}))
	c.Reg.MustRegister(fd.Factory(fdCfg))
	c.Reg.MustRegister(consensus.Factory())
	c.CreateAll(consensus.Protocol)
	logs := make([]*decLog, n)
	for i := range logs {
		logs[i] = newDecLog()
		c.Stacks[i].Call(consensus.Service, consensus.Listen{Group: 0, Handler: logs[i].add})
	}
	return c, logs
}

func fastFD() fd.Config {
	return fd.Config{Interval: 5 * time.Millisecond, Timeout: 50 * time.Millisecond,
		AdaptStep: 50 * time.Millisecond}
}

func proposeAll(c *stacktest.Cluster, id consensus.InstanceID, vals [][]byte) {
	for i, st := range c.Stacks {
		if st.Running() {
			st.Call(consensus.Service, consensus.Propose{ID: id, Value: vals[i%len(vals)]})
		}
	}
}

func waitDecisionEverywhere(t *testing.T, c *stacktest.Cluster, logs []*decLog, id consensus.InstanceID, crashed map[int]bool) []byte {
	t.Helper()
	c.Eventually(timeout, fmt.Sprintf("decision %v everywhere", id), func() bool {
		for i, l := range logs {
			if crashed[i] {
				continue
			}
			if _, ok := l.get(id); !ok {
				return false
			}
		}
		return true
	})
	var ref []byte
	for i, l := range logs {
		if crashed[i] {
			continue
		}
		v, _ := l.get(id)
		if ref == nil {
			ref = v
		} else if !bytes.Equal(ref, v) {
			t.Fatalf("agreement violated: stack %d decided %q, others %q", i, v, ref)
		}
	}
	return ref
}

func TestDecidesWithIdenticalProposals(t *testing.T) {
	c, logs := build(t, 3, simnet.Config{}, fastFD())
	id := consensus.InstanceID{Group: 0, Seq: 0}
	proposeAll(c, id, [][]byte{[]byte("v")})
	got := waitDecisionEverywhere(t, c, logs, id, nil)
	if string(got) != "v" {
		t.Errorf("decided %q, want %q (validity)", got, "v")
	}
}

func TestValidityDecisionIsSomeProposal(t *testing.T) {
	c, logs := build(t, 3, simnet.Config{Seed: 1, Jitter: time.Millisecond}, fastFD())
	id := consensus.InstanceID{Group: 0, Seq: 0}
	vals := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	proposeAll(c, id, vals)
	got := waitDecisionEverywhere(t, c, logs, id, nil)
	if string(got) != "a" && string(got) != "b" && string(got) != "c" {
		t.Errorf("decided %q, not among proposals (validity violated)", got)
	}
}

func TestManySequentialInstances(t *testing.T) {
	c, logs := build(t, 3, simnet.Config{Seed: 2, BaseLatency: 500 * time.Microsecond}, fastFD())
	const k = 20
	for seq := uint64(0); seq < k; seq++ {
		id := consensus.InstanceID{Group: 0, Seq: seq}
		proposeAll(c, id, [][]byte{[]byte(fmt.Sprintf("val-%d", seq))})
	}
	c.Eventually(timeout, "all instances decided", func() bool {
		for _, l := range logs {
			if l.count() != k {
				return false
			}
		}
		return true
	})
	for seq := uint64(0); seq < k; seq++ {
		waitDecisionEverywhere(t, c, logs, consensus.InstanceID{Group: 0, Seq: seq}, nil)
	}
}

func TestConcurrentInstancesDifferentGroups(t *testing.T) {
	c, logs := build(t, 3, simnet.Config{Seed: 3}, fastFD())
	g1 := make([]*decLog, 3)
	for i := range g1 {
		g1[i] = newDecLog()
		c.Stacks[i].Call(consensus.Service, consensus.Listen{Group: 1, Handler: g1[i].add})
	}
	id0 := consensus.InstanceID{Group: 0, Seq: 0}
	id1 := consensus.InstanceID{Group: 1, Seq: 0}
	proposeAll(c, id0, [][]byte{[]byte("group0")})
	proposeAll(c, id1, [][]byte{[]byte("group1")})
	if v := waitDecisionEverywhere(t, c, logs, id0, nil); string(v) != "group0" {
		t.Errorf("group 0 decided %q", v)
	}
	c.Eventually(timeout, "group 1 decision", func() bool {
		for _, l := range g1 {
			if _, ok := l.get(id1); !ok {
				return false
			}
		}
		return true
	})
	for _, l := range g1 {
		if v, _ := l.get(id1); string(v) != "group1" {
			t.Errorf("group 1 decided %q", v)
		}
	}
	// Group isolation: group-0 listeners must not see group-1 decisions.
	for i, l := range logs {
		if _, leak := l.get(id1); leak {
			t.Errorf("stack %d: group 1 decision leaked to group 0 listener", i)
		}
	}
}

func TestTerminatesWithMinorityCrash(t *testing.T) {
	c, logs := build(t, 5, simnet.Config{Seed: 4}, fastFD())
	// Crash two of five before proposing (incl. the round-0 coordinator).
	c.Stacks[0].Crash()
	c.Stacks[4].Crash()
	id := consensus.InstanceID{Group: 0, Seq: 0}
	proposeAll(c, id, [][]byte{[]byte("survivor")})
	crashed := map[int]bool{0: true, 4: true}
	got := waitDecisionEverywhere(t, c, logs, id, crashed)
	if string(got) != "survivor" {
		t.Errorf("decided %q", got)
	}
}

func TestCoordinatorCrashMidInstanceStillTerminates(t *testing.T) {
	c, logs := build(t, 3, simnet.Config{Seed: 5, BaseLatency: 2 * time.Millisecond}, fastFD())
	id := consensus.InstanceID{Group: 0, Seq: 0}
	// Propose everywhere, then immediately crash the round-0 coordinator
	// (stack 0) so the nack/rotate path must run.
	proposeAll(c, id, [][]byte{[]byte("x"), []byte("y"), []byte("z")})
	c.Stacks[0].Crash()
	waitDecisionEverywhere(t, c, logs, id, map[int]bool{0: true})
}

func TestSafeUnderAggressiveFalseSuspicions(t *testing.T) {
	// A hair-trigger FD forces many rounds; safety (single decision,
	// agreement) must hold and adaptation must eventually let a round
	// complete.
	c, logs := build(t, 3,
		simnet.Config{Seed: 6, BaseLatency: 4 * time.Millisecond},
		fd.Config{Interval: 2 * time.Millisecond, Timeout: 3 * time.Millisecond,
			AdaptStep: 5 * time.Millisecond})
	id := consensus.InstanceID{Group: 0, Seq: 0}
	proposeAll(c, id, [][]byte{[]byte("p0"), []byte("p1"), []byte("p2")})
	waitDecisionEverywhere(t, c, logs, id, nil)
}

func TestLossyNetworkDecides(t *testing.T) {
	c, logs := build(t, 3,
		simnet.Config{Seed: 7, BaseLatency: time.Millisecond},
		fd.Config{Interval: 5 * time.Millisecond, Timeout: 200 * time.Millisecond,
			AdaptStep: 100 * time.Millisecond})
	c.Faults.SetLoss(0.15)
	for seq := uint64(0); seq < 5; seq++ {
		id := consensus.InstanceID{Group: 0, Seq: seq}
		proposeAll(c, id, [][]byte{[]byte(fmt.Sprintf("m%d", seq))})
		waitDecisionEverywhere(t, c, logs, id, nil)
	}
}

func TestLateListenerGetsReplayedDecisions(t *testing.T) {
	c, logs := build(t, 3, simnet.Config{}, fastFD())
	for seq := uint64(0); seq < 3; seq++ {
		id := consensus.InstanceID{Group: 9, Seq: seq}
		for _, st := range c.Stacks {
			st.Call(consensus.Service, consensus.Propose{ID: id, Value: []byte{byte(seq)}})
		}
	}
	_ = logs
	// Wait until stack 0 has all three decisions cached (listener on
	// group 9 does not exist anywhere yet).
	late := newDecLog()
	c.Eventually(timeout, "replay to late listener", func() bool {
		probe := newDecLog()
		done := make(chan struct{})
		c.Stacks[0].Do(func() {
			c.Stacks[0].Call(consensus.Service, consensus.Listen{Group: 9, Handler: probe.add})
			c.Stacks[0].Call(consensus.Service, consensus.Unlisten{Group: 9})
			close(done)
		})
		<-done
		// Listen/Unlisten above are queued; give them a beat to run.
		time.Sleep(5 * time.Millisecond)
		if probe.count() == 3 {
			c.Stacks[0].Call(consensus.Service, consensus.Listen{Group: 9, Handler: late.add})
			return true
		}
		return false
	})
	c.Eventually(timeout, "final replay", func() bool { return late.count() == 3 })
	// Replay must be in Seq order.
	// (decLog dedups by ID; order check needs a slice-based probe.)
}

func TestReproposeAfterDecisionReindicates(t *testing.T) {
	c, logs := build(t, 3, simnet.Config{}, fastFD())
	id := consensus.InstanceID{Group: 0, Seq: 0}
	proposeAll(c, id, [][]byte{[]byte("once")})
	waitDecisionEverywhere(t, c, logs, id, nil)
	// A second propose for the decided instance must re-indicate, not
	// restart the instance.
	got := make(chan consensus.Decide, 1)
	c.Stacks[1].Call(consensus.Service, consensus.Listen{Group: 0, Handler: func(d consensus.Decide) {
		select {
		case got <- d:
		default:
		}
	}})
	c.Stacks[1].Call(consensus.Service, consensus.Propose{ID: id, Value: []byte("again")})
	select {
	case d := <-got:
		if string(d.Value) != "once" {
			t.Errorf("re-indication value %q, want %q", d.Value, "once")
		}
	case <-time.After(timeout):
		t.Fatal("no re-indication")
	}
}

func TestForgetDropsGroupState(t *testing.T) {
	c, logs := build(t, 3, simnet.Config{}, fastFD())
	id := consensus.InstanceID{Group: 0, Seq: 0}
	proposeAll(c, id, [][]byte{[]byte("gone")})
	waitDecisionEverywhere(t, c, logs, id, nil)
	c.Stacks[0].Call(consensus.Service, consensus.Forget{Group: 0})
	c.OnSync(0, func() {})
	// After Forget, a fresh listener sees no replay.
	probe := newDecLog()
	c.Stacks[0].Call(consensus.Service, consensus.Listen{Group: 0, Handler: probe.add})
	c.OnSync(0, func() {})
	time.Sleep(10 * time.Millisecond)
	if probe.count() != 0 {
		t.Errorf("replayed %d decisions after Forget", probe.count())
	}
}

func TestUniformIntegritySingleDecisionValue(t *testing.T) {
	// Run several instances with conflicting proposals under jitter and
	// verify every stack decided the same single value per instance.
	c, logs := build(t, 5, simnet.Config{Seed: 8, Jitter: 2 * time.Millisecond}, fastFD())
	const k = 10
	for seq := uint64(0); seq < k; seq++ {
		vals := make([][]byte, 5)
		for i := range vals {
			vals[i] = []byte(fmt.Sprintf("s%d-i%d", seq, i))
		}
		proposeAll(c, consensus.InstanceID{Group: 0, Seq: seq}, vals)
	}
	for seq := uint64(0); seq < k; seq++ {
		waitDecisionEverywhere(t, c, logs, consensus.InstanceID{Group: 0, Seq: seq}, nil)
	}
}

// TestRefetchReindicatesCachedDecision: Refetch replays one cached
// decision to the group's listener (the recovery path for users that
// bound their own out-of-order decision buffers) and is a no-op for
// undecided instances.
func TestRefetchReindicatesCachedDecision(t *testing.T) {
	c, logs := build(t, 3, simnet.Config{}, fastFD())
	id := consensus.InstanceID{Group: 0, Seq: 0}
	proposeAll(c, id, [][]byte{[]byte("v")})
	want := waitDecisionEverywhere(t, c, logs, id, nil)

	var mu sync.Mutex
	var replayed []consensus.Decide
	c.OnSync(0, func() {})
	c.Stacks[0].Call(consensus.Service, consensus.Listen{Group: 0, Handler: func(d consensus.Decide) {
		mu.Lock()
		replayed = append(replayed, d)
		mu.Unlock()
	}})
	c.OnSync(0, func() {}) // Listen replays the cache once
	mu.Lock()
	base := len(replayed)
	mu.Unlock()
	c.Stacks[0].Call(consensus.Service, consensus.Refetch{ID: id})
	c.Stacks[0].Call(consensus.Service, consensus.Refetch{ID: consensus.InstanceID{Group: 0, Seq: 99}})
	c.OnSync(0, func() {})
	mu.Lock()
	defer mu.Unlock()
	if len(replayed) != base+1 {
		t.Fatalf("refetch replayed %d decisions, want exactly 1 (the decided instance)", len(replayed)-base)
	}
	got := replayed[len(replayed)-1]
	if got.ID != id || !bytes.Equal(got.Value, want) {
		t.Fatalf("refetch replayed %v/%q, want %v/%q", got.ID, got.Value, id, want)
	}
}
