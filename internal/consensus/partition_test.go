package consensus_test

import (
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/simnet"
)

// TestMajorityPartitionDecidesMinorityBlocksThenCatchesUp exercises the
// quorum behaviour the Chandra-Toueg algorithm promises: during a
// partition, the majority side keeps deciding, the minority side blocks
// (safety over liveness), and after the heal the minority adopts the
// majority's decisions through the reliable broadcast of decisions.
func TestMajorityPartitionDecidesMinorityBlocksThenCatchesUp(t *testing.T) {
	c, logs := build(t, 5, simnet.Config{Seed: 77}, fastFD())
	// Partition: {0,1,2} | {3,4}.
	for _, a := range []int{0, 1, 2} {
		for _, b := range []int{3, 4} {
			c.Cut(a, b)
		}
	}
	id := consensus.InstanceID{Group: 0, Seq: 0}
	proposeAll(c, id, [][]byte{[]byte("majority-value")})
	// Majority side decides.
	c.Eventually(timeout, "majority decision", func() bool {
		for i := 0; i < 3; i++ {
			if _, ok := logs[i].get(id); !ok {
				return false
			}
		}
		return true
	})
	// Minority side must NOT decide while partitioned (give it time to
	// try): safety over liveness.
	time.Sleep(150 * time.Millisecond)
	for i := 3; i < 5; i++ {
		if v, ok := logs[i].get(id); ok {
			// Deciding is only legal if it matches the majority value
			// (it cannot: decisions travel over cut links) — flag it.
			t.Fatalf("minority stack %d decided %q during partition", i, v)
		}
	}
	// Heal: relayed decisions catch the minority up.
	for _, a := range []int{0, 1, 2} {
		for _, b := range []int{3, 4} {
			c.Heal(a, b)
		}
	}
	got := waitDecisionEverywhere(t, c, logs, id, nil)
	if string(got) != "majority-value" {
		t.Errorf("decided %q", got)
	}
}

// TestDecisionsSurviveCoordinatorPartition cuts only the round-0
// coordinator away mid-instance; the rest must rotate past it.
func TestDecisionsSurviveCoordinatorPartition(t *testing.T) {
	c, logs := build(t, 3, simnet.Config{Seed: 78, BaseLatency: time.Millisecond}, fastFD())
	id := consensus.InstanceID{Group: 0, Seq: 0}
	proposeAll(c, id, [][]byte{[]byte("x"), []byte("y"), []byte("z")})
	c.Isolate(0) // round-0 coordinator unreachable
	skip := map[int]bool{0: true}
	waitDecisionEverywhere(t, c, logs, id, skip)
	// Heal; the isolated coordinator must converge to the same value.
	c.Rejoin(0)
	waitDecisionEverywhere(t, c, logs, id, nil)
}
