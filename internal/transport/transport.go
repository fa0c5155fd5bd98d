package transport

import "errors"

// Addr identifies an endpoint: the stack's address within its group.
// The value is the same small integer used as kernel.Addr and, for the
// simulated backend, simnet.Addr.
type Addr int

// Packet is one received datagram: the decoded sender address and the
// payload.
type Packet struct {
	From Addr
	Data []byte
}

// RecvFunc is invoked with a batch of one or more received datagrams
// (one recvmmsg worth on the batched linux backend, the messages one
// socket read completed on TCP, a single packet on the simulated
// fabric). It runs on a transport-owned goroutine (the simnet clock's —
// one pacer on wall time, the driver under virtual time — or a socket
// read loop); implementations must hand the batch to their stack's
// executor — ideally as ONE enqueued task — and return quickly. Every
// packet's data is owned by the receiver and remains valid after the
// call returns; the pkts slice itself is valid only during the call.
type RecvFunc func(pkts []Packet)

// Endpoint is one stack's attachment to the fabric. Every backend
// implements all of it.
type Endpoint interface {
	// Addr returns the endpoint's address.
	Addr() Addr
	// Send transmits data to the endpoint at to now, best-effort: the
	// datagram may be lost, duplicated or reordered, and Send never
	// blocks on delivery. The data is copied (or encoded) before Send
	// returns; the caller may reuse the buffer. Send is safe from any
	// goroutine, concurrently with Enqueue and Flush.
	Send(to Addr, data []byte)
	// Enqueue queues the datagram head‖body for the next Flush, exactly
	// as Send(to, head‖body) would send it — Enqueue+Flush changes
	// syscall and datagram counts, never semantics — and queued
	// datagrams to one destination leave in Enqueue order. A backend
	// with nothing to amortize (the simulated fabric) sends at once. The
	// two halves have opposite ownership:
	//
	//   - head is copied before Enqueue returns;
	//   - body, which may be empty, is kept BY REFERENCE until the
	//     backend has written it, which may be long after Flush returns.
	//     The caller must never write to those bytes again (not after
	//     the write either: the same slice may be queued to several
	//     peers and retransmitted), so a pooled or reused buffer must
	//     not be passed as body. The backend only reads it.
	//
	// Enqueue and Flush must be called from one goroutine at a time
	// (the stack executor); they may race with Send and with the
	// backend's receive path but not with each other.
	Enqueue(to Addr, head, body []byte)
	// Flush transmits everything queued since the previous Flush; with
	// nothing queued it is a no-op.
	Flush()
	// Close detaches the endpoint. In-flight packets to it are
	// discarded; the address becomes available for a new OpenBatch.
	Close()
}

// Router is an optional Transport extension for fabrics with explicit
// routing state (the real-socket address book): membership views admit
// and retire endpoints at runtime through it. Fabrics with implicit
// routing (simnet reaches any address) simply do not implement it.
type Router interface {
	// AddRoute maps a group address to a transport endpoint ("host:port"
	// for UDP). Re-adding an existing address overwrites its entry.
	AddRoute(addr Addr, endpoint string) error
	// RemoveRoute forgets the address; subsequent sends to it are
	// dropped as loss.
	RemoveRoute(addr Addr)
}

// Transport is a factory of endpoints over one fabric.
type Transport interface {
	// OpenBatch attaches an endpoint at addr. recv is invoked with the
	// delivered datagrams, in batches. Opening an address twice without
	// closing the first endpoint is an error.
	OpenBatch(addr Addr, recv RecvFunc) (Endpoint, error)
	// Close shuts the whole fabric down: every endpoint is detached and
	// subsequent sends are discarded.
	Close()
}

// ErrClosed is returned by OpenBatch on a closed transport.
var ErrClosed = errors.New("transport: closed")
