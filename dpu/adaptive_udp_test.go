package dpu_test

import (
	"context"
	"testing"
	"time"

	"repro/dpu"
	"repro/internal/policy"
	"repro/internal/transport"
)

// steerTo is a policy that wants one protocol, whatever the signals.
type steerTo string

func (p steerTo) Name() string { return "steer-to-" + string(p) }

func (p steerTo) Evaluate(policy.Signals) policy.Decision {
	return policy.Decision{Target: string(p), Reason: "test"}
}

// TestAdaptiveSwitchUnderBatchingOverUDP runs the adaptive engine over
// real sockets with sender-side batching: its switch (a blocking
// ChangeProtocolAll) completes while every wall-clock timer of the
// process — the batch flush it waits for included — keeps firing, and
// the group keeps delivering, exactly once and in one total order,
// across it.
func TestAdaptiveSwitchUnderBatchingOverUDP(t *testing.T) {
	const n, per = 3, 100
	tr, err := transport.NewUDP(transport.UDPConfig{Book: udpBook(t, n)})
	if err != nil {
		t.Fatal(err)
	}
	c := newGroup(t, n, dpu.WithTransport(tr),
		dpu.WithInitialProtocol(dpu.ProtocolCT),
		dpu.WithBatching(500*time.Microsecond, 32<<10),
		dpu.WithAdaptive(steerTo(dpu.ProtocolSequencer),
			dpu.AdaptiveInterval(5*time.Millisecond), dpu.AdaptiveConfirm(1)))
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	send := func(from int) {
		for i, node := range c.node {
			for s := from; s < from+per; s++ {
				if err := node.Broadcast(ctx, payloadFor(i, s)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	send(0)
	for i := 0; i < n; i++ {
		if ev := c.waitSwitch(t, i); ev.Protocol != dpu.ProtocolSequencer {
			t.Fatalf("stack %d switched to %q", i, ev.Protocol)
		}
	}
	send(per)
	assertExactlyOnceTotalOrder(t, c, n, 2*n*per)
}
