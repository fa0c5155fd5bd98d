package main

import (
	"fmt"
	"net"

	"repro/dpu"
	"repro/internal/transport"
)

// streamJSON records the stream-transport figure: the same broadcast
// workload over real UDP and real TCP loopback sockets across a
// payload sweep that deliberately crosses the UDP datagram ceiling.
// Below the ceiling the two backends are comparable; above it only the
// stream backend can carry the message at all (fragmented into
// DefaultMaxFragment chunks and reassembled), which is the point of
// the figure.
type streamJSON struct {
	N           int               `json:"n"`
	DatagramMax int               `json:"datagram_max"`
	Points      []streamPointJSON `json:"points"`
}

type streamPointJSON struct {
	PayloadBytes   int     `json:"payload_bytes"`
	Messages       int     `json:"messages"`
	UDPDeliverable bool    `json:"udp_deliverable"`
	UDPMsgsPerSec  float64 `json:"udp_msgs_per_sec,omitempty"`
	UDPMBPerSec    float64 `json:"udp_mb_per_sec,omitempty"`
	TCPMsgsPerSec  float64 `json:"tcp_msgs_per_sec"`
	TCPMBPerSec    float64 `json:"tcp_mb_per_sec"`
	TCPFragments   uint64  `json:"tcp_fragments"`
}

// udpPayloadCeiling is the largest app payload the figure trusts to a
// single datagram: MaxDatagram minus generous protocol-header room.
const udpPayloadCeiling = 60000

// reserveLoopbackStreamBook grabs n ephemeral loopback TCP ports, the
// stream twin of reserveLoopbackBook.
func reserveLoopbackStreamBook(n int) (map[transport.Addr]string, error) {
	book := make(map[transport.Addr]string, n)
	ls := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		book[transport.Addr(i)] = l.Addr().String()
	}
	return book, nil
}

// realTransportRun pushes msgs broadcasts per stack through a 3-stack
// cluster over the given real transport and returns delivered
// messages/sec on stack 0 (the shape of realUDPRun, transport-agnostic).
func realTransportRun(tr transport.Transport, msgs, payloadBytes int, seed int64) (float64, error) {
	c, err := dpu.New(3,
		dpu.WithTransport(tr), dpu.WithSeed(seed),
		dpu.WithMaxOutstanding(16),
	)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	return flood(c, msgs, payloadBytes)
}

// streamProbe sweeps payload sizes across the datagram ceiling over
// both real-socket backends. The per-point message count scales down
// with payload size around a fixed byte budget so the big payloads
// don't dominate the wall clock.
func streamProbe(quick bool, seed int64) (*streamJSON, error) {
	payloads := []int{1024, 16 << 10, udpPayloadCeiling, 128 << 10, 512 << 10, 1 << 20}
	budget := 48 << 20
	if quick {
		payloads = []int{1024, udpPayloadCeiling, 256 << 10}
		budget = 12 << 20
	}
	out := &streamJSON{N: 3, DatagramMax: transport.MaxDatagram}
	for _, size := range payloads {
		msgs := budget / size
		if msgs > 2000 {
			msgs = 2000
		}
		if msgs < 10 {
			msgs = 10
		}
		pt := streamPointJSON{
			PayloadBytes:   size,
			Messages:       msgs * 3,
			UDPDeliverable: size <= udpPayloadCeiling,
		}
		if pt.UDPDeliverable {
			book, err := reserveLoopbackBook(3)
			if err != nil {
				return nil, err
			}
			utr, err := transport.NewUDP(transport.UDPConfig{Book: book, SocketBuffer: 4 << 20})
			if err != nil {
				return nil, err
			}
			rate, err := realTransportRun(utr, msgs, size, seed)
			if err != nil {
				return nil, fmt.Errorf("udp payload %d: %w", size, err)
			}
			pt.UDPMsgsPerSec = rate
			pt.UDPMBPerSec = rate * float64(size) / (1 << 20)
		}
		book, err := reserveLoopbackStreamBook(3)
		if err != nil {
			return nil, err
		}
		ttr, err := transport.NewTCP(transport.TCPConfig{Book: book})
		if err != nil {
			return nil, err
		}
		rate, err := realTransportRun(ttr, msgs, size, seed)
		if err != nil {
			return nil, fmt.Errorf("tcp payload %d: %w", size, err)
		}
		pt.TCPMsgsPerSec = rate
		pt.TCPMBPerSec = rate * float64(size) / (1 << 20)
		pt.TCPFragments = ttr.Stats().Fragments
		out.Points = append(out.Points, pt)
	}
	return out, nil
}
