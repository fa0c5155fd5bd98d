package udp_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/simnet"
	"repro/internal/stacktest"
	"repro/internal/udp"
)

const timeout = 5 * time.Second

// sink records Recv indications for one channel tag.
type sink struct {
	kernel.Base
	mu  sync.Mutex
	got []udp.Recv
}

func newSink(st *kernel.Stack) *sink { return &sink{Base: kernel.NewBase(st, "sink")} }

func (s *sink) HandleIndication(_ kernel.ServiceID, ind kernel.Indication) {
	if rv, ok := ind.(udp.Recv); ok {
		s.mu.Lock()
		s.got = append(s.got, rv)
		s.mu.Unlock()
	}
}

func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got)
}

func (s *sink) at(i int) udp.Recv {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.got[i]
}

func build(t *testing.T, n int, cfg simnet.Config) (*stacktest.Cluster, []*sink) {
	c := stacktest.New(t, n, cfg, nil)
	c.Reg.MustRegister(udp.Factory(c.Tr))
	c.CreateAll(udp.Protocol)
	sinks := make([]*sink, n)
	for i := range sinks {
		i := i
		c.OnSync(i, func() {
			sinks[i] = newSink(c.Stacks[i])
			c.Stacks[i].AddModule(sinks[i])
			c.Stacks[i].Subscribe(udp.Service, sinks[i])
		})
	}
	return c, sinks
}

func TestSendReceive(t *testing.T) {
	c, sinks := build(t, 2, simnet.Config{})
	c.Stacks[0].Call(udp.Service, udp.Send{To: 1, Chan: 7, Data: []byte("ping")})
	c.Eventually(timeout, "datagram", func() bool { return sinks[1].count() == 1 })
	got := sinks[1].at(0)
	if got.From != 0 || got.Chan != 7 || string(got.Data) != "ping" {
		t.Errorf("got %+v", got)
	}
}

func TestChannelTagPreserved(t *testing.T) {
	c, sinks := build(t, 2, simnet.Config{})
	c.Stacks[0].Call(udp.Service, udp.Send{To: 1, Chan: udp.ChanRP2P, Data: []byte("a")})
	c.Stacks[0].Call(udp.Service, udp.Send{To: 1, Chan: udp.ChanFD, Data: []byte("b")})
	c.Eventually(timeout, "two datagrams", func() bool { return sinks[1].count() == 2 })
	tags := map[byte]bool{}
	tags[sinks[1].at(0).Chan] = true
	tags[sinks[1].at(1).Chan] = true
	if !tags[udp.ChanRP2P] || !tags[udp.ChanFD] {
		t.Errorf("channel tags lost: %v", tags)
	}
}

func TestEmptyPayloadHeartbeat(t *testing.T) {
	c, sinks := build(t, 2, simnet.Config{})
	c.Stacks[0].Call(udp.Service, udp.Send{To: 1, Chan: udp.ChanFD})
	c.Eventually(timeout, "heartbeat", func() bool { return sinks[1].count() == 1 })
	if got := sinks[1].at(0); len(got.Data) != 0 {
		t.Errorf("payload = %v, want empty", got.Data)
	}
}

func TestLossyNetworkDropsAreSilent(t *testing.T) {
	c, sinks := build(t, 2, simnet.Config{Seed: 3})
	c.Faults.SetLoss(1)
	for i := 0; i < 10; i++ {
		c.Stacks[0].Call(udp.Service, udp.Send{To: 1, Chan: 1, Data: []byte{1}})
	}
	// Nothing must arrive; also nothing must crash.
	c.OnSync(0, func() {})
	if sinks[1].count() != 0 {
		t.Errorf("received %d datagrams on a fully lossy net", sinks[1].count())
	}
}

func TestStopReleasesEndpoint(t *testing.T) {
	c, _ := build(t, 1, simnet.Config{})
	c.OnSync(0, func() {
		st := c.Stacks[0]
		prov := st.Provider(udp.Service)
		st.RemoveModule(prov.ID())
		// Recreating must succeed because Stop closed the endpoint.
		if _, err := st.CreateProtocol(udp.Protocol); err != nil {
			t.Errorf("recreate after stop: %v", err)
		}
	})
}
