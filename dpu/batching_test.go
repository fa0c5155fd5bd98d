package dpu_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/dpu"
)

// TestBatchingDeliversAllInOrder smoke-checks the batching fast path:
// a burst from every stack arrives exactly once, in the same total
// order, on every stack.
func TestBatchingDeliversAllInOrder(t *testing.T) {
	const n, per = 3, 200
	c := newGroup(t, n, dpu.WithSeed(11),
		dpu.WithBatching(200*time.Microsecond, 8<<10))
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for i, node := range c.node {
		for s := 0; s < per; s++ {
			if err := node.Broadcast(ctx, payloadFor(i, s)); err != nil {
				t.Fatal(err)
			}
		}
	}
	assertExactlyOnceTotalOrder(t, c, n, n*per)
}

// TestBatchingAcrossProtocolSwitch is the batching x switch scenario:
// ChangeProtocolAll fires in the middle of a concurrent burst with
// batching enabled, so batches are caught undelivered at the epoch
// boundary and must be reissued exactly once through the new protocol.
// Asserts no loss, no duplication and a single total order spanning
// both epochs, on every stack.
func TestBatchingAcrossProtocolSwitch(t *testing.T) {
	const n, per = 3, 300
	c := newGroup(t, n, dpu.WithSeed(12), dpu.WithInitialProtocol(dpu.ProtocolCT),
		dpu.WithBatching(150*time.Microsecond, 4<<10))
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	// Producers stream from every stack while the switch happens.
	var wg sync.WaitGroup
	errs := make(chan error, n)
	release := make(chan struct{}) // producers start; switch fires mid-stream
	for i, node := range c.node {
		wg.Add(1)
		go func(i int, node *dpu.Node) {
			defer wg.Done()
			<-release
			for s := 0; s < per; s++ {
				if err := node.Broadcast(ctx, payloadFor(i, s)); err != nil {
					errs <- fmt.Errorf("stack %d msg %d: %w", i, s, err)
					return
				}
			}
		}(i, node)
	}
	close(release)
	// Let the burst get going, then switch protocols under it — twice,
	// so batches straddle two epoch boundaries.
	time.Sleep(2 * time.Millisecond)
	if _, err := c.ChangeProtocolAll(ctx, dpu.ProtocolSequencer); err != nil {
		t.Fatalf("switch to sequencer: %v", err)
	}
	if _, err := c.ChangeProtocolAll(ctx, dpu.ProtocolCT); err != nil {
		t.Fatalf("switch back to ct: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	assertExactlyOnceTotalOrder(t, c, n, n*per)
}

func payloadFor(stack, seq int) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint32(b, uint32(stack))
	binary.BigEndian.PutUint32(b[4:], uint32(seq))
	return b
}

// assertExactlyOnceTotalOrder drains total deliveries from every stack
// and checks exactly-once per stack plus an identical delivery order
// across stacks.
func assertExactlyOnceTotalOrder(t *testing.T, c *group, n, total int) {
	t.Helper()
	orders := make([][]string, n)
	for i := 0; i < n; i++ {
		seen := make(map[string]bool, total)
		for _, d := range c.drain(t, i, total) {
			if len(d.Data) != 8 {
				t.Fatalf("stack %d: malformed payload %x", i, d.Data)
			}
			key := fmt.Sprintf("%d/%d", binary.BigEndian.Uint32(d.Data), binary.BigEndian.Uint32(d.Data[4:]))
			if seen[key] {
				t.Fatalf("stack %d: duplicate delivery of %s", i, key)
			}
			seen[key] = true
			orders[i] = append(orders[i], key)
		}
		if dropped := c.sub[i].Dropped(); dropped != 0 {
			t.Fatalf("stack %d: %d deliveries dropped by the test buffer", i, dropped)
		}
	}
	for i := 1; i < n; i++ {
		if len(orders[i]) != len(orders[0]) {
			t.Fatalf("stack %d delivered %d, stack 0 delivered %d", i, len(orders[i]), len(orders[0]))
		}
		for j := range orders[0] {
			if orders[i][j] != orders[0][j] {
				t.Fatalf("total order diverges at position %d: stack %d saw %s, stack 0 saw %s",
					j, i, orders[i][j], orders[0][j])
			}
		}
	}
}
