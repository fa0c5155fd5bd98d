package transporttest

import (
	"bytes"
	"sync"

	"repro/internal/transport"
)

// Datagram is one send a Tap saw: the bytes that cross the fabric.
type Datagram struct {
	From, To transport.Addr
	Data     []byte
}

// Tap wraps a transport for tests that assert on the wire image: it
// records a copy of every datagram an endpoint is asked to send, in
// order, and swallows the ones Drop picks (after recording them). It
// implements Transport alone — no batching, no by-reference bodies — so
// the udp module above it joins head and body itself and sends
// datagram by datagram: what the tap records is what the fabric carries.
type Tap struct {
	transport.Transport
	// Drop, when set, is asked about every datagram; true swallows it.
	Drop func(d Datagram) bool

	mu   sync.Mutex
	sent []Datagram
}

// Open opens the inner endpoint and taps its sends.
func (t *Tap) Open(addr transport.Addr, recv transport.RecvFunc) (transport.Endpoint, error) {
	ep, err := t.Transport.Open(addr, recv)
	if err != nil {
		return nil, err
	}
	return tapEndpoint{Endpoint: ep, tap: t}, nil
}

// Sent returns what has been recorded so far.
func (t *Tap) Sent() []Datagram {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Datagram(nil), t.sent...)
}

type tapEndpoint struct {
	transport.Endpoint
	tap *Tap
}

func (e tapEndpoint) Send(to transport.Addr, data []byte) {
	d := Datagram{From: e.Addr(), To: to, Data: bytes.Clone(data)}
	e.tap.mu.Lock()
	e.tap.sent = append(e.tap.sent, d)
	e.tap.mu.Unlock()
	if e.tap.Drop != nil && e.tap.Drop(d) {
		return
	}
	e.Endpoint.Send(to, data)
}
