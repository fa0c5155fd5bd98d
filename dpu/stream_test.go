package dpu_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/dpu"
	"repro/internal/transport"
	"repro/internal/transport/transporttest"
)

// tcpBook reserves n loopback TCP ports and returns a transport
// address book over them.
func tcpBook(t *testing.T, n int) map[transport.Addr]string {
	t.Helper()
	book := make(map[transport.Addr]string, n)
	for i, a := range transporttest.ReserveStreamAddrs(t, n) {
		book[transport.Addr(i)] = a
	}
	return book
}

// TestClusterOverTCP runs the full stack over the stream backend:
// broadcasts before, during and after a live ChangeProtocol must come
// out exactly once, in the same total order, on every stack — the same
// contract the UDP e2e test enforces, now over connections instead of
// datagrams.
func TestClusterOverTCP(t *testing.T) {
	const n, msgs = 3, 40
	tr, err := transport.NewTCP(transport.TCPConfig{Book: tcpBook(t, n)})
	if err != nil {
		t.Fatal(err)
	}
	c := newGroup(t, n, dpu.WithTransport(tr))

	from := 0
	send := func(count int) {
		for i := 0; i < count; i++ {
			if err := c.node[from].Broadcast(bg, []byte(fmt.Sprintf("t-%d-%d", from, i))); err != nil {
				t.Fatal(err)
			}
			from = (from + 1) % n
		}
	}
	send(msgs / 2)
	c.requestChange(1, dpu.ProtocolSequencer)
	send(msgs - msgs/2)

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
}

// TestClusterTCPLargePayload is the acceptance test for stream
// fragmentation: a payload three times past the UDP datagram ceiling
// (65507 bytes) must round-trip through Broadcast intact on every
// stack. Over the datagram backend this message cannot exist; over the
// stream backend it is fragmented, carried, and reassembled below the
// protocol layer.
func TestClusterTCPLargePayload(t *testing.T) {
	const n = 3
	payload := make([]byte, 3*transport.MaxDatagram) // ~192 KiB
	for i := range payload {
		payload[i] = byte(i*31 + i>>9)
	}

	tr, err := transport.NewTCP(transport.TCPConfig{Book: tcpBook(t, n)})
	if err != nil {
		t.Fatal(err)
	}
	c := newGroup(t, n, dpu.WithTransport(tr))

	// A small preamble plus the oversized message plus a small coda, all
	// from one origin: per-source FIFO means fragmentation must not
	// disturb the ordering around the big message.
	if err := c.node[1].Broadcast(bg, []byte("before")); err != nil {
		t.Fatal(err)
	}
	if err := c.node[1].Broadcast(bg, payload); err != nil {
		t.Fatal(err)
	}
	if err := c.node[1].Broadcast(bg, []byte("after")); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < n; i++ {
		got := c.drain(t, i, 3)
		if string(got[0].Data) != "before" || string(got[2].Data) != "after" {
			t.Fatalf("stack %d framing messages out of order (lengths %d, %d, %d)",
				i, len(got[0].Data), len(got[1].Data), len(got[2].Data))
		}
		if got[1].Origin != 1 {
			t.Fatalf("stack %d large payload attributed to %d", i, got[1].Origin)
		}
		if !bytes.Equal(got[1].Data, payload) {
			t.Fatalf("stack %d large payload corrupted: %d bytes, want %d", i, len(got[1].Data), len(payload))
		}
	}
	if st := tr.Stats(); st.Fragments == 0 {
		t.Fatalf("large payload delivered without fragmentation: %+v", st)
	}
}

// TestLinkFaultsOverTransport exercises PartitionLink/HealLink over an
// external transport wrapped in transport.Faulty: the cut lands on the
// decorator (both one-way directions), bounds are still checked, and
// the healed group makes progress end to end.
func TestLinkFaultsOverTransport(t *testing.T) {
	const n = 3
	tr, err := transport.NewTCP(transport.TCPConfig{Book: tcpBook(t, n)})
	if err != nil {
		t.Fatal(err)
	}
	c := newGroup(t, n, dpu.WithTransport(transport.Faulty(tr, transport.FaultConfig{Seed: 5})))

	if err := c.PartitionLink(0, 1); err != nil {
		t.Fatalf("PartitionLink over injector: %v", err)
	}
	if err := c.HealLink(0, 1); err != nil {
		t.Fatalf("HealLink over injector: %v", err)
	}
	if err := c.PartitionLink(-1, 1); !errors.Is(err, dpu.ErrOutOfRange) {
		t.Fatalf("PartitionLink(-1,1) = %v, want ErrOutOfRange", err)
	}

	// The healed cluster must still make progress end to end.
	if err := c.node[0].Broadcast(bg, []byte("post-heal")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got := c.drain(t, i, 1)
		if string(got[0].Data) != "post-heal" {
			t.Fatalf("stack %d delivered %q after heal", i, got[0].Data)
		}
	}
}
