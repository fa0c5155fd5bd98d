package dpu_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/dpu"
	"repro/internal/vclock"
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

// TestBatchingAcrossProtocolSwitch is the batching x switch scenario,
// in virtual time: each of two clock events issues a burst from every
// stack with a protocol change in its middle (ct → seq, then seq → ct),
// so the initiator's batches opened after its change request are
// ordered after the change, caught undelivered at the epoch boundary
// and reissued exactly once through the new protocol. Asserts that a
// batch was caught at each switch, and no loss, no duplication and a
// single total order spanning all three epochs, on every stack.
func TestBatchingAcrossProtocolSwitch(t *testing.T) {
	const n, per = 3, 300
	vc := vclock.NewVirtual()
	c := newGroup(t, n, dpu.WithSeed(12), dpu.WithClock(vc), dpu.WithInitialProtocol(dpu.ProtocolCT),
		dpu.WithBatching(150*time.Microsecond, 4<<10))
	ctx := context.Background()
	burst := func(from, to int, change string) {
		for s := from; s < to; s++ {
			if s == (from+to)/2 {
				c.requestChange(0, change)
			}
			for i, node := range c.node {
				if err := node.Broadcast(ctx, payloadFor(i, s)); err != nil {
					t.Errorf("stack %d msg %d: %v", i, s, err)
				}
			}
		}
	}
	for k, change := range []string{dpu.ProtocolSequencer, dpu.ProtocolCT} {
		vc.AfterFunc(time.Millisecond, func() { burst(k*per/2, (k+1)*per/2, change) })
		vc.RunFor(time.Second)
		ev := c.waitSwitch(t, 0)
		if ev.Protocol != change || ev.Epoch != uint64(k+1) {
			t.Fatalf("switch %d: stack 0 reached %q at epoch %d, want %q at %d", k, ev.Protocol, ev.Epoch, change, k+1)
		}
		if ev.Reissued < 1 {
			t.Errorf("switch %d to %s reissued %d messages on its initiator, want ≥ 1 batch caught undelivered",
				k, change, ev.Reissued)
		}
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
