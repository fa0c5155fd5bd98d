package dpu

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/vclock"
)

// TestDeliveredPayloadsNotRetained delivers k and then 10·k 64-KiB
// messages under a virtual clock and compares the live heap after each
// phase: a delivered payload belongs to whoever read it from a
// subscription, so what the cluster itself keeps alive must not grow
// with the number of messages delivered.
func TestDeliveredPayloadsNotRetained(t *testing.T) {
	const (
		k     = 16
		size  = 64 << 10
		slack = 4 << 20 // phase two moves 30 MiB of payload through three stacks
	)
	for _, drained := range []bool{false, true} {
		name := "no subscription"
		if drained {
			name = "drained subscription"
		}
		t.Run(name, func(t *testing.T) {
			vc := vclock.NewVirtual()
			c, err := New(3, WithSeed(13), WithClock(vc), WithInitialProtocol(ProtocolSequencer))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			n0, err := c.Node(0)
			if err != nil {
				t.Fatal(err)
			}
			var seen sync.WaitGroup
			if drained {
				sub, err := n0.Subscribe(SubscribeOptions{Deliveries: true, Policy: Block})
				if err != nil {
					t.Fatal(err)
				}
				go func() {
					for range sub.Deliveries() {
						seen.Done()
					}
				}()
			}
			liveAfter := func(msgs int) uint64 {
				if drained {
					seen.Add(msgs)
				}
				for i := 0; i < msgs; i++ {
					if err := n0.Broadcast(context.Background(), make([]byte, size)); err != nil {
						t.Fatal(err)
					}
				}
				// 100 Mbit/s of simulated LAN carries a 64-KiB message in
				// 5 ms; a virtual minute drains the largest phase many
				// times over and costs only the heartbeats in between.
				vc.RunFor(time.Minute)
				st, err := n0.Status(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if st.Undelivered != 0 {
					t.Fatalf("%d of %d broadcasts still undelivered", st.Undelivered, msgs)
				}
				seen.Wait()
				// Twice: the first cycle only demotes pooled buffers to the
				// pools' victim caches.
				runtime.GC()
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				return ms.HeapAlloc
			}
			small := liveAfter(k)
			large := liveAfter(10 * k)
			t.Logf("live heap: %d KiB after %d messages, %d KiB after %d more", small>>10, k, large>>10, 10*k)
			if large > small+slack {
				t.Errorf("live heap grew %d KiB over %d more deliveries (slack %d KiB): delivered payloads are retained",
					(large-small)>>10, 10*k, slack>>10)
			}
		})
	}
}
