package rp2p_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/rp2p"
	"repro/internal/simnet"
	"repro/internal/stacktest"
	"repro/internal/transport"
	"repro/internal/transport/transporttest"
	"repro/internal/udp"
	"repro/internal/vclock"
)

// buildOver is build on a virtual clock with 1-ms hops and the udp
// modules on the transport wrap puts around the fabric.
func buildOver(t *testing.T, wrap func(transport.Transport, vclock.Clock) transport.Transport) (*stacktest.Cluster, *vclock.Virtual) {
	vc := vclock.NewVirtual()
	c := stacktest.New(t, 2, simnet.Config{Clock: vc, BaseLatency: time.Millisecond}, nil)
	c.Reg.MustRegister(udp.Factory(wrap(c.Tr, vc)))
	c.Reg.MustRegister(rp2p.Factory(rp2p.Config{RTO: 20 * time.Millisecond}))
	c.CreateAll(rp2p.Protocol)
	return c, vc
}

func statsOf(c *stacktest.Cluster, i int) rp2p.Stats {
	var s rp2p.Stats
	c.OnSync(i, func() {
		c.Stacks[i].CallSync(rp2p.Service, rp2p.StatsReq{Reply: func(got rp2p.Stats) { s = got }})
	})
	return s
}

// TestOvertakenPacketIsResentAtFirstAck loses the first of two packets.
// The ack the second one draws echoes a stamp later than the first
// packet's transmission, so the first is resent as soon as that ack
// lands — one round trip after the loss, far inside the 20-ms timeout —
// and only once.
func TestOvertakenPacketIsResentAtFirstAck(t *testing.T) {
	lost := false
	c, vc := buildOver(t, func(tr transport.Transport, clock vclock.Clock) transport.Transport {
		return &transporttest.Tap{Transport: tr, Drop: func(d transporttest.Datagram) bool {
			if lost || !bytes.Contains(d.Data, []byte("first")) {
				return false
			}
			lost = true
			return true
		}}
	})
	log := &recvLog{}
	listen(c, 1, "ch", log)
	delta := stacktest.CounterDelta()
	c.Stacks[0].Call(rp2p.Service, rp2p.Send{To: 1, Channel: "ch", Data: []byte("first")})
	vc.RunFor(100 * time.Microsecond)
	c.Stacks[0].Call(rp2p.Service, rp2p.Send{To: 1, Channel: "ch", Data: []byte("second")})
	// The second packet lands at 1.1 ms, its ack at 2.1 ms, the resend at
	// 3.1 ms.
	vc.RunFor(4 * time.Millisecond)
	if !lost {
		t.Fatal("the first packet was never dropped")
	}
	if got := log.snapshot(); len(got) != 2 || string(got[0].Data) != "first" || string(got[1].Data) != "second" {
		t.Fatalf("%d deliveries 4 ms in, want first and second, in order", len(got))
	}
	vc.RunFor(200 * time.Millisecond) // past every timeout
	if got := delta("rp2p.retransmits"); got != 1 {
		t.Errorf("%d retransmissions, want exactly 1", got)
	}
	if s := statsOf(c, 1); s.Delivered != 2 || s.DupsDiscarded != 0 {
		t.Errorf("receiver stats %+v: want 2 delivered, no duplicate", s)
	}
}

// TestDelayedAckResendsNothing: with 5-ms hops a packet leaves every
// millisecond, so each ack arrives while several later packets are in
// flight. None of them was overtaken, and none is resent.
func TestDelayedAckResendsNothing(t *testing.T) {
	vc := vclock.NewVirtual()
	c := stacktest.New(t, 2, simnet.Config{Clock: vc, BaseLatency: 5 * time.Millisecond}, nil)
	c.Reg.MustRegister(udp.Factory(c.Tr))
	c.Reg.MustRegister(rp2p.Factory(rp2p.Config{RTO: 50 * time.Millisecond}))
	c.CreateAll(rp2p.Protocol)
	log := &recvLog{}
	listen(c, 1, "ch", log)
	delta := stacktest.CounterDelta()
	const total = 20
	for i := 0; i < total; i++ {
		c.Stacks[0].Call(rp2p.Service, rp2p.Send{To: 1, Channel: "ch", Data: []byte{byte(i)}})
		vc.RunFor(time.Millisecond)
	}
	vc.RunFor(100 * time.Millisecond)
	if log.count() != total {
		t.Fatalf("%d of %d delivered", log.count(), total)
	}
	if got := delta("rp2p.retransmits"); got != 0 {
		t.Errorf("%d retransmissions of packets that were only in flight, want 0", got)
	}
}

// TestReorderedDeliveryStaysExactlyOnceFIFO holds a fifth of the
// datagrams back so later ones overtake them. Some acks then name a
// packet that is only late; its resend is spurious but harmless: every
// message is delivered once and in order, and every retransmission shows
// up at the receiver as one discarded duplicate.
func TestReorderedDeliveryStaysExactlyOnceFIFO(t *testing.T) {
	var faulty *transport.FaultyTransport
	c, vc := buildOver(t, func(tr transport.Transport, clock vclock.Clock) transport.Transport {
		faulty = transport.Faulty(tr, transport.FaultConfig{Seed: 3, Clock: clock})
		return faulty
	})
	faulty.SetReorder(0.2)
	log := &recvLog{}
	listen(c, 1, "ch", log)
	const total = 300
	for i := 0; i < total; i++ {
		c.Stacks[0].Call(rp2p.Service, rp2p.Send{To: 1, Channel: "ch", Data: []byte(fmt.Sprint(i))})
		vc.RunFor(300 * time.Microsecond)
	}
	vc.RunFor(time.Second)
	got := log.snapshot()
	if len(got) != total {
		t.Fatalf("%d of %d delivered", len(got), total)
	}
	for i, rv := range got {
		if string(rv.Data) != fmt.Sprint(i) {
			t.Fatalf("delivery %d is %q: FIFO violated", i, rv.Data)
		}
	}
	if faulty.Stats().Reordered == 0 {
		t.Fatal("nothing was reordered")
	}
	sent, recv := statsOf(c, 0), statsOf(c, 1)
	if recv.DupsDiscarded != sent.Retransmits {
		t.Errorf("%d retransmissions, %d duplicates discarded: want one duplicate per spurious resend", sent.Retransmits, recv.DupsDiscarded)
	}
	t.Logf("%d reordered datagrams, %d spurious resends", faulty.Stats().Reordered, sent.Retransmits)
}
