package dpu_test

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"testing"

	"repro/dpu"
	"repro/internal/transport"
	"repro/internal/transport/transporttest"
)

// udpBook reserves n loopback ports and returns a transport address
// book over them.
func udpBook(t *testing.T, n int) map[transport.Addr]string {
	t.Helper()
	book := make(map[transport.Addr]string, n)
	for i, a := range transporttest.ReserveAddrs(t, n) {
		book[transport.Addr(i)] = a
	}
	return book
}

// TestClusterOverRealUDP runs the full stack over real loopback
// sockets: messages broadcast before, during and after a live
// ChangeProtocol must come out exactly once, in the same total order,
// on every stack.
func TestClusterOverRealUDP(t *testing.T) {
	const n, msgs = 3, 60
	tr, err := transport.NewUDP(transport.UDPConfig{Book: udpBook(t, n)})
	if err != nil {
		t.Fatal(err)
	}
	c := newGroup(t, n, dpu.WithTransport(tr))

	send := func(from, count int) {
		for i := 0; i < count; i++ {
			if err := c.node[from].Broadcast(bg, []byte(fmt.Sprintf("u-%d-%d", from, i))); err != nil {
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
	// Exactly once: no duplicates beyond the expected count.
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
}

// TestClusterWithExecutorPoolOverBatchedUDP runs the full stack over
// the batched UDP backend with every stack's executor goroutine
// sharing a pool of two processors (GOMAXPROCS 2), the Go scheduler
// multiplexing them onto it. The sharing must be invisible in the
// results — same total order, same exactly-once delivery, live
// protocol switch included — while the transport stats prove the
// syscall batching actually engaged.
func TestClusterWithExecutorPoolOverBatchedUDP(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })

	const n, msgs = 3, 60
	tr, err := transport.NewUDP(transport.UDPConfig{Book: udpBook(t, n)})
	if err != nil {
		t.Fatal(err)
	}
	c := newGroup(t, n, dpu.WithTransport(tr))

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

// TestClusterOverLossyUDP layers simnet-style loss over the real
// sockets; RP2P's retransmission must still get every message through.
func TestClusterOverLossyUDP(t *testing.T) {
	const n, msgs = 3, 30
	inner, err := transport.NewUDP(transport.UDPConfig{Book: udpBook(t, n)})
	if err != nil {
		t.Fatal(err)
	}
	tr := transport.Faulty(inner, transport.FaultConfig{Seed: 11})
	tr.SetLoss(0.1)
	tr.SetDup(0.05)
	c := newGroup(t, n, dpu.WithTransport(tr))

	for i := 0; i < msgs; i++ {
		if err := c.node[i%n].Broadcast(bg, []byte(fmt.Sprintf("lossy-%d", i))); err != nil {
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

// TestBindFailureSurfaces pins down that a transport bind conflict —
// which the udp module can only record, not return — comes back as an
// error from dpu.New instead of yielding a cluster that silently drops
// all traffic.
func TestBindFailureSurfaces(t *testing.T) {
	book := udpBook(t, 2)
	ua, err := net.ResolveUDPAddr("udp", book[0])
	if err != nil {
		t.Fatal(err)
	}
	squatter, err := net.ListenUDP("udp", ua)
	if err != nil {
		t.Fatal(err)
	}
	defer squatter.Close()
	tr, err := transport.NewUDP(transport.UDPConfig{Book: book})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if c, err := dpu.New(2, dpu.WithTransport(tr)); err == nil {
		c.Close()
		t.Fatal("bind conflict did not surface from dpu.New")
	}
}

// TestLocalStacksValidation covers the multi-process configuration
// surface without spawning processes.
func TestLocalStacksValidation(t *testing.T) {
	tr, err := transport.NewUDP(transport.UDPConfig{Book: udpBook(t, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dpu.New(3, dpu.WithTransport(tr), dpu.WithLocalStacks(5)); err == nil {
		t.Fatal("out-of-range local stack accepted")
	}
	c := newGroup(t, 3, dpu.WithTransport(tr), dpu.WithLocalStacks(1))
	if _, err := c.Node(0); !errors.Is(err, dpu.ErrRemoteStack) {
		t.Fatalf("handle on a remote stack: %v, want ErrRemoteStack", err)
	}
	if c.Stack(0) != nil || c.Stack(1) == nil {
		t.Fatal("local/remote stack exposure wrong")
	}
	if err := c.node[1].Broadcast(bg, []byte("x")); err != nil {
		t.Fatal(err)
	}
}
