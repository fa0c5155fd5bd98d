package dpu_test

// End-to-end coverage for WithExecutorPool combined with the batched
// UDP backend: the full protocol stack, over real loopback sockets,
// with all stacks' executors multiplexed onto a shared worker pool.
// The pool must be invisible in the results — same total order, same
// exactly-once delivery, live protocol switch included — while the
// transport stats prove the syscall batching actually engaged.

import (
	"fmt"
	"testing"

	"repro/dpu"
	"repro/internal/transport"
)

func TestClusterWithExecutorPoolOverBatchedUDP(t *testing.T) {
	const n, msgs = 3, 60
	tr, err := transport.NewUDP(transport.UDPConfig{Book: udpBook(t, n)})
	if err != nil {
		t.Fatal(err)
	}
	c := newGroup(t, n, dpu.WithTransport(tr), dpu.WithExecutorPool(2))

	send := func(from, count int) {
		for i := 0; i < count; i++ {
			if err := c.node[from].Broadcast(bg, []byte(fmt.Sprintf("p-%d-%d", from, i))); err != nil {
				t.Fatal(err)
			}
			from = (from + 1) % n
		}
	}
	send(0, msgs/2)
	c.requestChange(1, dpu.ProtocolSequencer)
	send(1, msgs-msgs/2)

	for i := 0; i < n; i++ {
		if ev := c.waitSwitch(t, i); ev.Protocol != dpu.ProtocolSequencer {
			t.Fatalf("stack %d switched to %q", i, ev.Protocol)
		}
	}

	sequences := make([][]string, n)
	for i := 0; i < n; i++ {
		for _, d := range c.drain(t, i, msgs) {
			sequences[i] = append(sequences[i], fmt.Sprintf("%d:%s", d.Origin, d.Data))
		}
	}
	for i := 1; i < n; i++ {
		if len(sequences[i]) != len(sequences[0]) {
			t.Fatalf("stack %d delivered %d, stack 0 delivered %d", i, len(sequences[i]), len(sequences[0]))
		}
		for k := range sequences[0] {
			if sequences[i][k] != sequences[0][k] {
				t.Fatalf("order divergence at %d: stack0=%s stack%d=%s", k, sequences[0][k], i, sequences[i][k])
			}
		}
	}
	seen := map[string]bool{}
	for _, s := range sequences[0] {
		if seen[s] {
			t.Fatalf("duplicate delivery %s", s)
		}
		seen[s] = true
	}
	if len(seen) != msgs {
		t.Fatalf("delivered %d distinct messages, want %d", len(seen), msgs)
	}

	if transport.BatchSyscallsAvailable() {
		st := tr.Stats()
		if st.SendCalls == 0 || st.SendCalls > st.Sent || st.Sent >= st.Delivered {
			t.Errorf("send batching idle: %d syscalls for %d datagrams carrying %d payloads", st.SendCalls, st.Sent, st.Delivered)
		}
		if st.RecvCalls == 0 || st.RecvCalls >= st.Delivered {
			t.Errorf("recv batching idle: %d syscalls for %d payloads", st.RecvCalls, st.Delivered)
		}
	}
}

// TestExecutorPoolWithFaultyBatchedUDP layers the fault decorator over
// the batched backend under the pool — the adversarial configuration
// every piece of new machinery has to survive together. Loss forces
// RP2P retransmissions through the batch queues.
func TestExecutorPoolWithFaultyBatchedUDP(t *testing.T) {
	const n, msgs = 3, 30
	inner, err := transport.NewUDP(transport.UDPConfig{Book: udpBook(t, n)})
	if err != nil {
		t.Fatal(err)
	}
	tr := transport.Faulty(inner, transport.FaultConfig{Seed: 23, LossRate: 0.1})
	c := newGroup(t, n, dpu.WithTransport(tr), dpu.WithExecutorPool(0))

	for i := 0; i < msgs; i++ {
		if err := c.node[i%n].Broadcast(bg, []byte(fmt.Sprintf("pf-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ref := c.drain(t, 0, msgs)
	for i := 1; i < n; i++ {
		got := c.drain(t, i, msgs)
		for k := range ref {
			a := fmt.Sprintf("%d:%s", ref[k].Origin, ref[k].Data)
			b := fmt.Sprintf("%d:%s", got[k].Origin, got[k].Data)
			if a != b {
				t.Fatalf("order divergence at %d: stack0=%s stack%d=%s", k, a, i, b)
			}
		}
	}
	if st := tr.Stats(); st.Dropped == 0 {
		t.Fatalf("loss injection idle: %+v", st)
	}
}

// TestExecutorPoolOverSimnet runs the pooled scheduler over the
// deterministic in-process fabric: batching never engages there (by
// design — digest stability), but the pool must still deliver the same
// totally-ordered, exactly-once stream.
func TestExecutorPoolOverSimnet(t *testing.T) {
	const n, msgs = 4, 40
	c := newGroup(t, n, dpu.WithSeed(42), dpu.WithExecutorPool(3))
	for i := 0; i < msgs; i++ {
		if err := c.node[i%n].Broadcast(bg, []byte(fmt.Sprintf("sim-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ref := c.drain(t, 0, msgs)
	for i := 1; i < n; i++ {
		got := c.drain(t, i, msgs)
		for k := range ref {
			a := fmt.Sprintf("%d:%s", ref[k].Origin, ref[k].Data)
			b := fmt.Sprintf("%d:%s", got[k].Origin, got[k].Data)
			if a != b {
				t.Fatalf("order divergence at %d: stack0=%s stack%d=%s", k, a, i, b)
			}
		}
	}
}
