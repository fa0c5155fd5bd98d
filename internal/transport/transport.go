package transport

import "errors"

// Addr identifies an endpoint: the stack's address within its group.
// The value is the same small integer used as kernel.Addr and, for the
// simulated backend, simnet.Addr.
type Addr int

// RecvFunc is invoked for every datagram delivered to an endpoint. It
// runs on a transport-owned goroutine (the simnet clock's — one pacer
// on wall time, the driver under virtual time — or a socket read loop);
// implementations must hand the packet to their stack's executor and
// return quickly. The data slice is owned by the
// receiver and remains valid after the call returns.
type RecvFunc func(from Addr, data []byte)

// Endpoint is one stack's attachment to the fabric.
type Endpoint interface {
	// Addr returns the endpoint's address.
	Addr() Addr
	// Send transmits data to the endpoint at to, best-effort: the
	// datagram may be lost, duplicated or reordered, and Send never
	// blocks on delivery. The data is copied (or encoded) before Send
	// returns; the caller may reuse the buffer.
	Send(to Addr, data []byte)
	// Close detaches the endpoint. In-flight packets to it are
	// discarded; the address becomes available for a new Open.
	Close()
}

// Packet is one received datagram inside a batch delivery: the decoded
// sender address and the payload. As with RecvFunc, the data slice is
// owned by the receiver and remains valid after the batch callback
// returns.
type Packet struct {
	From Addr
	Data []byte
}

// BatchRecvFunc is invoked with a whole batch of received datagrams at
// once (one recvmmsg worth on the batched linux backend). It runs on a
// transport-owned goroutine; implementations must hand the batch to
// their stack's executor — ideally as ONE enqueued task, which is the
// point of batch delivery — and return quickly. The pkts slice and
// every packet's data are owned by the receiver and remain valid after
// the call returns.
type BatchRecvFunc func(pkts []Packet)

// BatchOpener is an optional Transport extension for backends that can
// deliver received datagrams in batches. Backends without a batched
// receive path simply do not implement it; callers fall back to Open.
type BatchOpener interface {
	// OpenBatch attaches an endpoint at addr like Open, but delivers
	// incoming datagrams through recv in batches of one or more packets.
	OpenBatch(addr Addr, recv BatchRecvFunc) (Endpoint, error)
}

// BatchSender is an optional Endpoint extension for backends that can
// amortize the per-datagram send cost (the UDP backend packs what one
// flush sends to a peer into shared datagrams, and writes them with one
// sendmmsg on linux). The contract mirrors Send: Enqueue copies (or
// encodes) data before returning, delivery is best-effort, and queued
// datagrams to one destination leave in Enqueue order. Flush transmits
// everything queued since the previous Flush; an endpoint with nothing
// queued flushes as a no-op. Enqueue and Flush must be called from one
// goroutine at a time (the stack executor); they may race with the
// backend's receive path but not with each other.
//
// Every call sequence that ends in Flush is equivalent to the same
// sequence of plain Sends — BatchSender changes syscall and datagram
// counts, never semantics — so callers may mix Send and Enqueue freely as long as
// they do not rely on cross-path ordering within one batch.
type BatchSender interface {
	Endpoint
	Enqueue(to Addr, data []byte)
	Flush()
}

// BodySender is an optional BatchSender extension for backends that can
// transmit one message handed over as two slices without joining them
// first (the TCP endpoint: one writev). EnqueueBody queues the message
// head‖body exactly as Enqueue(to, head‖body) would — same wire bytes,
// same ordering with Enqueue, transmitted by the same Flush — but the
// two halves have opposite ownership:
//
//   - head is copied before EnqueueBody returns, like Enqueue's data;
//   - body is kept BY REFERENCE until the backend has written it, which
//     may be long after Flush returns. The caller must never write to
//     those bytes again (not after the write either: the same slice may
//     be queued to several peers and retransmitted), so a pooled or
//     reused buffer must not be passed as body. The backend only reads
//     it, from its own goroutine.
//
// Backends without the extension are served by their caller joining
// the halves and using Enqueue/Send (internal/udp does, in one place).
type BodySender interface {
	BatchSender
	EnqueueBody(to Addr, head, body []byte)
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
	// Open attaches an endpoint at addr. recv is invoked for every
	// delivered datagram. Opening an address twice without closing the
	// first endpoint is an error.
	Open(addr Addr, recv RecvFunc) (Endpoint, error)
	// Close shuts the whole fabric down: every endpoint is detached and
	// subsequent sends are discarded.
	Close()
}

// ErrClosed is returned by Open on a closed transport.
var ErrClosed = errors.New("transport: closed")
