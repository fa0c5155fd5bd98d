package rbcast_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/rbcast"
	"repro/internal/rp2p"
	"repro/internal/simnet"
	"repro/internal/stacktest"
	"repro/internal/transport"
	"repro/internal/transport/transporttest"
	"repro/internal/vclock"
)

// payload is a recognisable buffer of n bytes.
func payload(tag byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag + byte(i*13+i>>10)
	}
	return b
}

// TestByReferenceIsInvisibleOnTheWire broadcasts a small record, a
// 128-KiB one and another small one in one executor pass, twice: as the
// module does it, the large record travelling by reference from the
// broadcaster's slice and, on relay, from the received buffer; and with
// the threshold out of reach, which is the coalescing path every record
// took before there was a threshold. Every link carries the same
// datagrams in the same order, byte for byte (how the sends to
// different peers interleave is not the wire's business), and every
// stack delivers the three records in the order they were broadcast.
func TestByReferenceIsInvisibleOnTheWire(t *testing.T) {
	big := payload('B', 128<<10)
	type link struct{ from, to transport.Addr }
	run := func(refMin int) (map[link][][]byte, [][]rbcast.Deliver) {
		vc := vclock.NewVirtual()
		c := stacktest.New(t, 3, simnet.Config{Clock: vc, Seed: 24, BaseLatency: time.Millisecond}, nil)
		tap := &transporttest.Tap{Transport: c.Tr}
		logs := buildOver(c, tap, rp2p.Config{})
		for i := range c.Stacks {
			st := c.Stacks[i]
			c.OnSync(i, func() { st.Provider(rbcast.Service).(*rbcast.Module).SetRefMin(refMin) })
		}
		c.OnSync(0, func() {
			for _, data := range [][]byte{[]byte("before"), big, []byte("after")} {
				c.Stacks[0].CallSync(rbcast.Service, rbcast.Broadcast{Channel: "t", Data: data})
			}
		})
		vc.RunFor(200 * time.Millisecond)
		sent := make(map[link][][]byte)
		for _, d := range tap.Sent() {
			sent[link{d.From, d.To}] = append(sent[link{d.From, d.To}], d.Data)
		}
		got := make([][]rbcast.Deliver, len(logs))
		for i, l := range logs {
			got[i] = l.snapshot()
		}
		c.Close()
		return sent, got
	}
	byRef, delivered := run(rbcast.MaxFrameBytes)
	coalesced, _ := run(math.MaxInt)

	for i, got := range delivered {
		if len(got) != 3 || string(got[0].Data) != "before" || !bytes.Equal(got[1].Data, big) || string(got[2].Data) != "after" {
			t.Fatalf("stack %d delivered %d records, or not before/big/after in that order", i, len(got))
		}
	}
	large := make(map[transport.Addr]int)
	for l, a := range byRef {
		b := coalesced[l]
		if len(a) != len(b) {
			t.Fatalf("link %v carried %d datagrams by reference, %d coalesced", l, len(a), len(b))
		}
		for k := range a {
			if !bytes.Equal(a[k], b[k]) {
				t.Fatalf("link %v, datagram %d: %d bytes by reference differ from the %d coalesced", l, k, len(a[k]), len(b[k]))
			}
			if len(a[k]) > len(big) {
				large[l.from]++
			}
		}
	}
	// The origin sends the large record to both peers, a relay to the one
	// peer that is neither the origin nor where it came from.
	if len(byRef) != 6 || large[0] != 2 || large[1] != 1 || large[2] != 1 {
		t.Errorf("%d links, large-record datagrams per sender %v; want 6 links and 2, 1, 1", len(byRef), large)
	}
}

// TestByReferenceCorruptedInFlight puts a link that corrupts every
// datagram under a 128-KiB broadcast: each receiver's frame checksum
// rejects every transmission and retransmission, nothing is delivered
// off-origin, and the broadcaster's buffer — which rp2p keeps handing to
// the fault injector — is never the copy that gets flipped.
func TestByReferenceCorruptedInFlight(t *testing.T) {
	vc := vclock.NewVirtual()
	c := stacktest.New(t, 3, simnet.Config{Clock: vc, BaseLatency: time.Millisecond}, nil)
	faulty := transport.Faulty(c.Tr, transport.FaultConfig{Seed: 5, CorruptRate: 1, Clock: vc})
	logs := buildOver(c, faulty, rp2p.Config{})
	delta := stacktest.CounterDelta()
	big := payload('C', 128<<10)
	pristine := bytes.Clone(big)
	c.Stacks[0].Call(rbcast.Service, rbcast.Broadcast{Channel: "t", Data: big})
	vc.RunFor(300 * time.Millisecond) // the first transmissions and several retransmissions
	c.Stacks[0].Close()               // no more sends; let what is in flight land
	vc.RunFor(10 * time.Millisecond)

	corrupted := faulty.Stats().Corrupted
	if corrupted < 4 || delta("rp2p.retransmits") < 2 {
		t.Fatalf("%d datagrams corrupted, %d retransmissions: the fault never bit", corrupted, delta("rp2p.retransmits"))
	}
	if got := delta("wire.frames_rejected"); got != corrupted {
		t.Errorf("%d frames rejected by the receivers, %d corrupted in flight", got, corrupted)
	}
	for i, l := range logs {
		if want := map[int]int{0: 1}[i]; l.count() != want {
			t.Errorf("stack %d delivered %d records, want %d", i, l.count(), want)
		}
	}
	if !bytes.Equal(big, pristine) {
		t.Fatal("the broadcaster's buffer was corrupted: the fault injector flipped bytes it did not own")
	}
}

// TestByReferenceOverTCP runs the by-reference path where it ends in a
// writev: three stacks over in-process TCP loopback, every stack
// broadcasting large records between small ones while it relays the
// others'. All of it arrives, per origin in broadcast order and byte for
// byte, no frame is rejected, and the link writers — which
// read the broadcasters' and the receivers' buffers while the executors
// still hold them — leave those buffers as they were. Run under -race
// in CI.
func TestByReferenceOverTCP(t *testing.T) {
	book := make(map[transport.Addr]string)
	for i, a := range transporttest.ReserveStreamAddrs(t, 3) {
		book[transport.Addr(i)] = a
	}
	tr, err := transport.NewTCP(transport.TCPConfig{Book: book, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := stacktest.New(t, 3, simnet.Config{}, nil)
	logs := buildOver(c, tr, rp2p.Config{})
	delta := stacktest.CounterDelta()

	const rounds = 6
	sent := make([][][]byte, 3) // per origin, in broadcast order
	for r := 0; r < rounds; r++ {
		for i, st := range c.Stacks {
			for _, data := range [][]byte{
				[]byte(fmt.Sprintf("%d<%d", i, r)),
				payload(byte(16*i+r), 128<<10+r),
				[]byte(fmt.Sprintf("%d>%d", i, r)),
			} {
				sent[i] = append(sent[i], data)
				st.Call(rbcast.Service, rbcast.Broadcast{Channel: "t", Data: data})
			}
		}
	}
	c.Eventually(30*time.Second, "every record everywhere", func() bool {
		for _, l := range logs {
			if l.count() < 3*3*rounds {
				return false
			}
		}
		return true
	})
	for i, l := range logs {
		next := make([]int, 3)
		for _, d := range l.snapshot() {
			o := int(d.Origin)
			if next[o] == len(sent[o]) || !bytes.Equal(d.Data, sent[o][next[o]]) {
				t.Fatalf("stack %d: delivery %d from origin %d is not what it broadcast at that position", i, next[o], o)
			}
			next[o]++
		}
	}
	// (SendErrs may count a write into the connection that lost a
	// simultaneous-dial tie-break; rp2p resends what that dropped.)
	if st := tr.Stats(); st.Malformed != 0 {
		t.Errorf("transport stats %+v", st)
	}
	if n := delta("wire.frames_rejected"); n != 0 {
		t.Errorf("%d frames rejected", n)
	}
	for i := range sent {
		for r := 0; r < rounds; r++ {
			if want := payload(byte(16*i+r), 128<<10+r); !bytes.Equal(sent[i][3*r+1], want) {
				t.Fatalf("origin %d: the buffer of large record %d changed after it was broadcast", i, r)
			}
		}
	}
}

// TestByReferenceNeedsRP2PBound checks the cold case: with RP2P unbound
// a large record takes the copying path (the parked request may keep
// that frame, it may not keep the caller's scratch header), and arrives
// once RP2P is back.
func TestByReferenceNeedsRP2PBound(t *testing.T) {
	c := stacktest.New(t, 2, simnet.Config{}, nil)
	logs := buildOver(c, c.Tr, rp2p.Config{})
	big := payload('U', 64<<10)
	c.OnSync(0, func() {
		st := c.Stacks[0]
		lower := st.Provider(rp2p.Service)
		st.Unbind(rp2p.Service)
		st.CallSync(rbcast.Service, rbcast.Broadcast{Channel: "t", Data: big})
		if n := st.PendingCalls(rp2p.Service); n != 0 {
			t.Errorf("%d requests parked during the pass: the record did not wait in the frame", n)
		}
		if err := st.Bind(rp2p.Service, lower); err != nil {
			t.Error(err)
		}
	})
	c.Eventually(10*time.Second, "delivery on the peer", func() bool { return logs[1].count() == 1 })
	if d := logs[1].snapshot()[0]; d.Origin != kernel.Addr(0) || !bytes.Equal(d.Data, big) {
		t.Fatal("the record that waited for RP2P arrived changed")
	}
}
