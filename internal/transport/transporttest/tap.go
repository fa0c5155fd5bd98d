package transporttest

import (
	"sync"

	"repro/internal/transport"
)

// Datagram is one send a Tap saw: the bytes that cross the fabric.
type Datagram struct {
	From, To transport.Addr
	Data     []byte
}

// Tap wraps a transport for tests that assert on the wire image: it
// records a copy of every datagram an endpoint is asked to send — a
// Send's data or an Enqueue's head‖body — in order, and swallows the
// ones Drop picks (after recording them). What the tap records is what
// the fabric carries.
type Tap struct {
	transport.Transport
	// Drop, when set, is asked about every datagram; true swallows it.
	Drop func(d Datagram) bool

	mu   sync.Mutex
	sent []Datagram
}

// OpenBatch opens the inner endpoint and taps its sends.
func (t *Tap) OpenBatch(addr transport.Addr, recv transport.RecvFunc) (transport.Endpoint, error) {
	ep, err := t.Transport.OpenBatch(addr, recv)
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

// pass records head‖body and reports whether it may leave.
func (e tapEndpoint) pass(to transport.Addr, head, body []byte) bool {
	d := Datagram{From: e.Addr(), To: to, Data: append(append([]byte(nil), head...), body...)}
	e.tap.mu.Lock()
	e.tap.sent = append(e.tap.sent, d)
	e.tap.mu.Unlock()
	return e.tap.Drop == nil || !e.tap.Drop(d)
}

func (e tapEndpoint) Send(to transport.Addr, data []byte) {
	if e.pass(to, data, nil) {
		e.Endpoint.Send(to, data)
	}
}

func (e tapEndpoint) Enqueue(to transport.Addr, head, body []byte) {
	if e.pass(to, head, body) {
		e.Endpoint.Enqueue(to, head, body)
	}
}
