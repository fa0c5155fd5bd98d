package transport

import (
	"repro/internal/simnet"
	"repro/internal/wire"
)

// Sim adapts an internal/simnet fabric to the Transport interface;
// closing the transport closes the network. simnet has no syscalls to
// amortize, so Enqueue sends at once, Flush is a no-op and each datagram
// arrives as a batch of one: the per-datagram schedule that keeps the
// corpus's digests bit-identical.
func Sim(n *simnet.Network) Transport { return simTransport{n} }

type simTransport struct{ net *simnet.Network }

// OpenBatch attaches an endpoint. simnet delivers one packet at a time,
// on its clock's goroutine, so one single-packet slice carries them all.
func (t simTransport) OpenBatch(addr Addr, recv RecvFunc) (Endpoint, error) {
	var one [1]Packet
	ep, err := t.net.Open(simnet.Addr(addr), func(from simnet.Addr, data []byte) {
		one[0] = Packet{From: Addr(from), Data: data}
		recv(one[:])
	})
	if err != nil {
		return nil, err
	}
	return simEndpoint{ep}, nil
}

func (t simTransport) Close() { t.net.Close() }

type simEndpoint struct{ ep *simnet.Endpoint }

func (e simEndpoint) Addr() Addr             { return Addr(e.ep.Addr()) }
func (e simEndpoint) Send(to Addr, b []byte) { e.ep.Send(simnet.Addr(to), b) }
func (e simEndpoint) Flush()                 {}
func (e simEndpoint) Close()                 { e.ep.Close() }

// Enqueue sends head‖body at once, a body joined to the head in a
// pooled buffer: simnet copies what it is handed.
func (e simEndpoint) Enqueue(to Addr, head, body []byte) {
	if len(body) == 0 {
		e.Send(to, head)
		return
	}
	w := wire.GetWriter(len(head) + len(body))
	e.Send(to, w.Raw(head).Raw(body).Bytes())
	w.Free()
}
