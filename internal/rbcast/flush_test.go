package rbcast_test

import (
	"testing"
	"time"

	"repro/internal/rbcast"
	"repro/internal/rp2p"
	"repro/internal/simnet"
	"repro/internal/stacktest"
	"repro/internal/transport"
	"repro/internal/transport/transporttest"
)

// TestLoneBroadcastLeavesInItsPass pins the transport flush to the end
// of the executor pass. rbcast's frames and rp2p's acks are written by
// flushers, so a transport flush that ran before them left a lone
// broadcast between idle stacks on the send queue until some later pass
// happened to come — with the retransmission timer an hour away, never.
// Over both batching backends, one broadcast reaches every stack and
// nothing is retransmitted.
func TestLoneBroadcastLeavesInItsPass(t *testing.T) {
	backends := []struct {
		name string
		open func(t *testing.T) transport.Transport
	}{
		{"udp", func(t *testing.T) transport.Transport {
			book := make(map[transport.Addr]string)
			for i, a := range transporttest.ReserveAddrs(t, 3) {
				book[transport.Addr(i)] = a
			}
			tr, err := transport.NewUDP(transport.UDPConfig{Book: book, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}},
		{"tcp", func(t *testing.T) transport.Transport {
			book := make(map[transport.Addr]string)
			for i, a := range transporttest.ReserveStreamAddrs(t, 3) {
				book[transport.Addr(i)] = a
			}
			tr, err := transport.NewTCP(transport.TCPConfig{Book: book, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			tr := b.open(t)
			defer tr.Close()
			c := stacktest.New(t, 3, simnet.Config{}, nil)
			logs := buildOver(c, tr, rp2p.Config{RTO: time.Hour, MaxRTO: time.Hour})
			delta := stacktest.CounterDelta()
			c.OnSync(0, func() {
				c.Stacks[0].CallSync(rbcast.Service, rbcast.Broadcast{Channel: "t", Data: []byte("lone")})
			})
			c.Eventually(timeout, "the broadcast on every stack", func() bool {
				for _, l := range logs {
					if l.count() != 1 {
						return false
					}
				}
				return true
			})
			if n := delta("rp2p.retransmits"); n != 0 {
				t.Errorf("%d retransmissions: the broadcast did not leave in the pass that produced it", n)
			}
		})
	}
}
