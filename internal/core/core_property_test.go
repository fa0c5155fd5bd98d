package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/abcast"
	"repro/internal/core"
	"repro/internal/simnet"
)

// TestRandomizedSwitchSchedules is the package's scenario-level property
// test: for random seeds, generate a random interleaving of broadcasts
// and protocol switches (random initiators, random target protocols,
// random pauses) and assert the one invariant that must survive
// anything — every stack delivers the identical sequence, exactly once.
func TestRandomizedSwitchSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario property test")
	}
	protocols := []string{abcast.ProtocolCT, abcast.ProtocolSeq, abcast.ProtocolToken}
	for trial := 0; trial < 5; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			n := 3 + rng.Intn(2)*2 // 3 or 5
			loss := float64(rng.Intn(8)) / 100
			c, sinks := buildDPU(t, n,
				simnet.Config{Seed: int64(trial), BaseLatency: 300 * time.Microsecond,
					Jitter: 300 * time.Microsecond},
				core.Config{InitialProtocol: protocols[rng.Intn(3)], Grace: 100 * time.Millisecond,
					RetryLostChange: true}, nil)
			c.Faults.SetLoss(loss)
			sent := 0
			switches := 0
			for op := 0; op < 60; op++ {
				switch rng.Intn(10) {
				case 0, 1: // switch from a random stack to a random protocol
					if switches < 4 { // bound the churn so the run quiesces
						c.Stacks[rng.Intn(n)].Call(core.Service,
							core.ChangeProtocol{Protocol: protocols[rng.Intn(3)]})
						switches++
					}
				case 2: // short pause: let epochs overlap differently
					time.Sleep(time.Duration(rng.Intn(8)) * time.Millisecond)
				default:
					c.Stacks[rng.Intn(n)].Call(core.Service,
						core.Broadcast{Data: []byte(fmt.Sprintf("t%d-m%d", trial, sent))})
					sent++
				}
			}
			waitDelivered(t, c, sinks, sent, nil)
			checkIdenticalSequences(t, sinks, nil)
		})
	}
}
