// Conformance runs for every backend. This file is in the EXTERNAL
// test package on purpose: transporttest imports transport, so only
// package transport_test files may import it back (see the package
// comment in transporttest).
package transport_test

import (
	"testing"

	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/transport/transporttest"
)

func bookOf(t testing.TB, addrs []transport.Addr, reserve func(testing.TB, int) []string) map[transport.Addr]string {
	t.Helper()
	ports := reserve(t, len(addrs))
	book := make(map[transport.Addr]string, len(addrs))
	for i, a := range addrs {
		book[a] = ports[i]
	}
	return book
}

// TestConformanceSim runs the contract suite over the deterministic
// simulated fabric (fault-free: reliable, but jitter may reorder).
func TestConformanceSim(t *testing.T) {
	transporttest.Conformance{
		New: func(t testing.TB, addrs []transport.Addr) transport.Transport {
			return transport.Sim(simnet.New(simnet.Config{Seed: 1}))
		},
		Reliable:       true,
		DeliverPayload: 128 << 10, // the simulator has no datagram ceiling
	}.Run(t)
}

// TestConformanceUDP runs the suite over real UDP loopback sockets with
// the batched (sendmmsg/recvmmsg) backend where the platform has it.
func TestConformanceUDP(t *testing.T) {
	transporttest.Conformance{
		New: func(t testing.TB, addrs []transport.Addr) transport.Transport {
			tr, err := transport.NewUDP(transport.UDPConfig{
				Book: bookOf(t, addrs, transporttest.ReserveAddrs),
			})
			if err != nil {
				t.Fatalf("NewUDP: %v", err)
			}
			return tr
		},
		Reserve:        transporttest.ReserveAddrs,
		DeliverPayload: 60000,                 // near the datagram ceiling
		DropPayload:    transport.MaxDatagram, // header leaves no room: dropped
	}.Run(t)
}

// TestConformanceUDPFallback forces the portable single-datagram
// syscall path (the non-linux shape of the same backend).
func TestConformanceUDPFallback(t *testing.T) {
	transporttest.Conformance{
		New: func(t testing.TB, addrs []transport.Addr) transport.Transport {
			tr, err := transport.NewPortableUDP(transport.UDPConfig{
				Book: bookOf(t, addrs, transporttest.ReserveAddrs),
			})
			if err != nil {
				t.Fatalf("NewUDP: %v", err)
			}
			return tr
		},
		Reserve:        transporttest.ReserveAddrs,
		DeliverPayload: 60000,
		DropPayload:    transport.MaxDatagram,
	}.Run(t)
}

// TestConformanceTCP runs the suite over the stream backend: ordered,
// reliable, and required to carry payloads far past the datagram
// ceiling (fragmented and reassembled).
func TestConformanceTCP(t *testing.T) {
	transporttest.Conformance{
		New: func(t testing.TB, addrs []transport.Addr) transport.Transport {
			tr, err := transport.NewTCP(transport.TCPConfig{
				Book:       bookOf(t, addrs, transporttest.ReserveStreamAddrs),
				MaxMessage: 1 << 20,
			})
			if err != nil {
				t.Fatalf("NewTCP: %v", err)
			}
			return tr
		},
		Reserve:        transporttest.ReserveStreamAddrs,
		Ordered:        true,
		Reliable:       true,
		DeliverPayload: 1 << 20,       // 16× the datagram ceiling
		DropPayload:    (1 << 20) + 1, // over MaxMessage: dropped
	}.Run(t)
}
