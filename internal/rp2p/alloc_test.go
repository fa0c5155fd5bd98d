package rp2p

import (
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/udp"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// TestAckRearmAllocatesNothing: an ack that moves the window forward
// re-arms the peer's one retransmission timer in place, on the wall
// clock's heap and on a virtual one, without allocating.
func TestAckRearmAllocatesNothing(t *testing.T) {
	for name, clock := range map[string]vclock.Clock{"wall": vclock.Wall, "virtual": vclock.NewVirtual()} {
		t.Run(name, func(t *testing.T) {
			st := kernel.NewStack(kernel.Config{Addr: 0, Peers: []kernel.Addr{0, 1}, Clock: clock})
			defer st.Close()
			m := Factory(Config{RTO: time.Hour, MaxRTO: 2 * time.Hour}).New(st).(*Module)
			const runs = 500
			// One ack per run (AllocsPerRun adds a warm-up run), each for one
			// more packet, boxed before the count starts.
			acks := make([]kernel.Indication, runs+1)
			for i := range acks {
				w := wire.NewWriter(16)
				w.Byte(pktAck).Uvarint(uint64(i + 2)).Uint64(0)
				acks[i] = udp.Recv{From: 1, Chan: udp.ChanRP2P, Data: w.Bytes()}
			}
			var allocs float64
			st.DoSync(func() {
				p := m.peerFor(1)
				// A packet per ack, plus one that stays in flight so every ack
				// re-arms the timer rather than stops it.
				for s := uint64(1); s <= runs+2; s++ {
					p.unacked[s] = &outPkt{seq: s, w: wire.GetWriter(16)}
				}
				m.armRetransmit(p)
				next := 0
				allocs = testing.AllocsPerRun(runs, func() {
					m.HandleIndication(udp.Service, acks[next])
					next++
				})
				if len(p.unacked) != 1 || !p.rtArmed {
					t.Errorf("%d packets in flight, timer armed %v: want 1, armed", len(p.unacked), p.rtArmed)
				}
				m.stopRetransmit(p)
			})
			if allocs > 0 {
				t.Errorf("an ack that re-arms the retransmission timer allocates %.2f times, want 0", allocs)
			}
		})
	}
}
