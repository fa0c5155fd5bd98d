package rp2p_test

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/rp2p"
	"repro/internal/simnet"
	"repro/internal/stacktest"
	"repro/internal/transport"
	"repro/internal/transport/transporttest"
	"repro/internal/udp"
	"repro/internal/vclock"
	"repro/internal/wire"
)

func patterned(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*11 + i>>9)
	}
	return b
}

// TestBodyRetransmittedByReference loses the first transmission of a
// head+body packet: the retransmission carries a fresh timestamp and
// nothing else new, both transmissions open under the frame checksum,
// the receiver gets Data followed by Body exactly once, and the
// sender's body — which rp2p held by reference all along — is untouched.
func TestBodyRetransmittedByReference(t *testing.T) {
	vc := vclock.NewVirtual()
	c := stacktest.New(t, 2, simnet.Config{Clock: vc, BaseLatency: time.Millisecond}, nil)
	const big = 100 << 10
	lost := false
	tap := &transporttest.Tap{Transport: c.Tr, Drop: func(d transporttest.Datagram) bool {
		if len(d.Data) < big || lost {
			return false
		}
		lost = true
		return true
	}}
	c.Reg.MustRegister(udp.Factory(tap))
	c.Reg.MustRegister(rp2p.Factory(rp2p.Config{RTO: 20 * time.Millisecond}))
	c.CreateAll(rp2p.Protocol)
	log := &recvLog{}
	listen(c, 1, "ch", log)
	delta := stacktest.CounterDelta()

	head, body := []byte("head:"), patterned(128<<10)
	pristine := bytes.Clone(body)
	c.Stacks[0].Call(rp2p.Service, rp2p.Send{To: 1, Channel: "ch", Data: head, Body: body})
	vc.RunFor(10 * time.Millisecond)
	if log.count() != 0 {
		t.Fatal("the dropped transmission was delivered")
	}
	copy(head, "XXXXX") // Data was copied while the request was handled
	vc.RunFor(100 * time.Millisecond)

	if log.count() != 1 || !bytes.Equal(log.snapshot()[0].Data, append([]byte("head:"), pristine...)) {
		t.Fatalf("%d deliveries, want Data‖Body once", log.count())
	}
	if got := delta("rp2p.retransmits"); got != 1 {
		t.Fatalf("%d retransmissions, want 1", got)
	}
	if !bytes.Equal(body, pristine) {
		t.Fatal("the sender's body changed while rp2p held it")
	}
	var tx [][]byte // the packet's transmissions, as rp2p payloads
	for _, d := range tap.Sent() {
		if len(d.Data) < big {
			continue // acks
		}
		tag, payload, ok := wire.OpenFrame(d.Data, uint64(d.From))
		if !ok || tag != udp.ChanRP2P {
			t.Fatalf("a %d-byte transmission does not open under the frame checksum", len(d.Data))
		}
		tx = append(tx, payload)
	}
	if len(tx) != 2 {
		t.Fatalf("%d transmissions of the packet, want 2", len(tx))
	}
	// type byte, one-byte sequence number, then the 8-byte timestamp.
	const tsOff = 2
	ts := func(p []byte) uint64 { return binary.BigEndian.Uint64(p[tsOff:]) }
	if ts(tx[1]) <= ts(tx[0]) {
		t.Fatalf("retransmission stamped %d, first transmission %d", ts(tx[1]), ts(tx[0]))
	}
	if !bytes.Equal(tx[0][:tsOff], tx[1][:tsOff]) || !bytes.Equal(tx[0][tsOff+8:], tx[1][tsOff+8:]) {
		t.Fatal("the retransmission differs from the first transmission outside the timestamp")
	}
}

// TestBodyCorruptedInFlight puts a link that corrupts every datagram
// under a 128-KiB body: the receiver's frame checksum rejects every
// transmission and retransmission, nothing is delivered, and the
// sender's body — which rp2p keeps handing to the fault injector — is
// never the copy that gets flipped.
func TestBodyCorruptedInFlight(t *testing.T) {
	vc := vclock.NewVirtual()
	c := stacktest.New(t, 2, simnet.Config{Clock: vc, BaseLatency: time.Millisecond}, nil)
	faulty := transport.Faulty(c.Tr, transport.FaultConfig{Seed: 5, CorruptRate: 1, Clock: vc})
	c.Reg.MustRegister(udp.Factory(faulty))
	c.Reg.MustRegister(rp2p.Factory(rp2p.Config{RTO: 20 * time.Millisecond}))
	c.CreateAll(rp2p.Protocol)
	log := &recvLog{}
	listen(c, 1, "ch", log)
	delta := stacktest.CounterDelta()
	body := patterned(128 << 10)
	pristine := bytes.Clone(body)
	c.Stacks[0].Call(rp2p.Service, rp2p.Send{To: 1, Channel: "ch", Data: []byte("head:"), Body: body})
	vc.RunFor(300 * time.Millisecond) // the first transmission and several retransmissions
	c.Stacks[0].Close()               // no more sends; let what is in flight land
	vc.RunFor(10 * time.Millisecond)

	corrupted := faulty.Stats().Corrupted
	if corrupted < 3 || delta("rp2p.retransmits") < 2 {
		t.Fatalf("%d datagrams corrupted, %d retransmissions: the fault never bit", corrupted, delta("rp2p.retransmits"))
	}
	if got := delta("wire.frames_rejected"); got != corrupted {
		t.Errorf("%d frames rejected by the receiver, %d corrupted in flight", got, corrupted)
	}
	if log.count() != 0 {
		t.Errorf("%d corrupted deliveries", log.count())
	}
	if !bytes.Equal(body, pristine) {
		t.Fatal("the sender's body was corrupted: the fault injector flipped bytes it did not own")
	}
}

// TestBodyColdCasesAreJoined covers the two sends rp2p does not carry by
// reference: a self-addressed one, which never reaches the wire, and one
// made while the UDP service is unbound, which parks. Both deliver Data
// followed by Body.
func TestBodyColdCasesAreJoined(t *testing.T) {
	c := build(t, 2, simnet.Config{}, rp2p.Config{})
	self, remote := &recvLog{}, &recvLog{}
	listen(c, 0, "ch", self)
	listen(c, 1, "ch", remote)
	c.OnSync(0, func() {
		st := c.Stacks[0]
		st.CallSync(rp2p.Service, rp2p.Send{To: 0, Channel: "ch", Data: []byte("to "), Body: []byte("self")})
		bottom := st.Provider(udp.Service)
		st.Unbind(udp.Service)
		st.CallSync(rp2p.Service, rp2p.Send{To: 1, Channel: "ch", Data: []byte("while "), Body: []byte("unbound")})
		if err := st.Bind(udp.Service, bottom); err != nil {
			t.Error(err)
		}
	})
	c.Eventually(timeout, "both deliveries", func() bool { return self.count() == 1 && remote.count() == 1 })
	if got := string(self.snapshot()[0].Data); got != "to self" {
		t.Errorf("self-addressed send delivered %q", got)
	}
	if got := string(remote.snapshot()[0].Data); got != "while unbound" {
		t.Errorf("send parked under an unbound UDP service delivered %q", got)
	}
}
