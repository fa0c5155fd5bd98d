// Package udp is the bottom module of the group-communication stack
// (Figure 4 of the paper): an interface to an unreliable datagram
// transport. It binds a transport endpoint to the "net/udp" service and
// demultiplexes traffic with a one-byte channel tag so that several
// upper modules can share the socket. Every outgoing datagram is sealed
// with a per-frame checksum (see internal/wire's frame layer) and every
// incoming one verified, so corrupted or truncated frames are counted
// and dropped instead of misparsed by the modules above.
//
// The module is transport-agnostic: it speaks to internal/transport's
// one Endpoint contract, so the same stack runs over the deterministic
// in-process simnet fabric (transport.Sim), over real UDP sockets
// spanning processes and hosts (transport.NewUDP) or over TCP streams.
//
// # Channel-tag registry
//
// Every datagram carries a one-byte tag directly after the transport
// frame; each listener of the Recv indication filters on it. The
// well-known tags are declared here so the registry has a single home:
//
//	ChanRP2P (1) — net/rp2p sequence/ack traffic. Everything above
//	  RP2P (rbcast, consensus, abcast, gm, core) multiplexes further
//	  by *named* RP2P channels ("rb", "cons", "cons-dec", "sq/<epoch>",
//	  "tk/<epoch>", "ab/<impl>/<epoch>", ...), not by new byte tags.
//	ChanFD (2) — the failure detector's heartbeats, which deliberately
//	  bypass RP2P: losing one is harmless and retransmitting a stale
//	  heartbeat would defeat the timeout logic.
//
// New modules that need raw datagrams should claim the next free byte
// here rather than inventing a private constant.
package udp

import (
	"repro/internal/kernel"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Service is the unreliable datagram service.
const Service kernel.ServiceID = "net/udp"

// Protocol is the protocol name registered for this module.
const Protocol = "net/udp"

// Well-known channel tags for modules sharing the socket. See the
// package comment for the registry.
const (
	// ChanRP2P carries reliable point-to-point (net/rp2p) traffic.
	ChanRP2P byte = 1
	// ChanFD carries failure-detector heartbeats.
	ChanFD byte = 2
)

// Send requests an unreliable datagram transmission.
//
// Data is never retained once the request has been handled: the module
// frames it and the transport copies it before its Enqueue returns. A sender that issues the request with Stack.CallSync may
// therefore reuse or pool the buffer as soon as the call returns.
//
// When Headroom is true, the first wire.FrameOverhead bytes of Data are
// reserved headroom owned by this module: it writes Chan and the frame
// checksum into them and hands Data to the transport as-is, so the
// payload crosses the framing layer without a copy. The sender must
// have reserved that leading region (wire.Writer.Pad(wire.FrameOverhead);
// its payload starts at Data[wire.FrameOverhead]).
//
// Body, when non-empty, is the rest of the datagram: the payload on the
// wire is Data (past its headroom) followed by Body, under one checksum.
// Its ownership is the opposite of Data's. The module only reads it,
// but it hands the slice to the transport by reference, and a stream
// transport keeps it until its writer has written it, after the request
// returns: Body must be immutable from the call on and must not be a
// pooled buffer (see transport.Endpoint.Enqueue).
//
// (The byte-sized fields sit together at the end so that the request,
// which is boxed into an interface per datagram, stays in the 64-byte
// allocation class.)
type Send struct {
	To       kernel.Addr
	Data     []byte
	Body     []byte
	Chan     byte
	Headroom bool
}

// Recv is indicated for every received datagram, to all listeners of
// the service; each listener filters on Chan.
type Recv struct {
	From kernel.Addr
	Chan byte
	Data []byte
}

// Module implements the UDP module over a transport backend.
//
// Outgoing Send requests are enqueued on the endpoint and flushed once
// per executor pass, so every frame produced in one pass leaves in as
// few datagrams and syscalls as the backend can pack it into; each
// received batch is re-injected as ONE executor event instead of one
// per datagram.
//
// The flush is armed by the first frame of a pass (Stack.RegisterFlusher)
// and disarms itself once it has run. Registered that late, it runs
// after every flusher that feeds it — rp2p's acks, rbcast's frames — so
// what they write leaves in the same pass instead of waiting for the
// next event to wake the stack.
type Module struct {
	kernel.Base
	tr      transport.Transport
	ep      transport.Endpoint
	flushFn func() // m.flush, bound once
	unflush func() // non-nil while a flush is armed for this pass
	openErr error
}

// Factory returns the module factory bound to a transport fabric.
func Factory(tr transport.Transport) kernel.Factory {
	return kernel.Factory{
		Protocol: Protocol,
		Provides: []kernel.ServiceID{Service},
		New: func(st *kernel.Stack) kernel.Module {
			return &Module{Base: kernel.NewBase(st, Protocol), tr: tr}
		},
	}
}

// Start opens the endpoint at the stack's address and subscribes to
// membership views so the transport's routing state follows the view.
// Module.Start cannot return an error, so a failure (e.g. a real-socket
// bind conflict) is recorded for OpenErr and the module stays up with
// no endpoint, dropping all traffic.
func (m *Module) Start() {
	m.Stk.Subscribe(kernel.PeerService, m)
	ep, err := m.tr.OpenBatch(transport.Addr(m.Stk.Addr()), m.receive)
	if err != nil {
		m.openErr = err
		m.Stk.Logf("udp: open: %v", err)
		return
	}
	m.ep = ep
	m.flushFn = m.flush
}

// flush is the armed end-of-pass hook: it disarms itself and transmits
// everything the pass enqueued. Executor-only.
//
//dpulint:executor
func (m *Module) flush() {
	m.unflush()
	m.unflush = nil
	m.ep.Flush()
}

// OpenErr reports whether Start failed to open the transport endpoint.
// Stack builders should check it (on the executor) after creating the
// stack: with real sockets a bind failure is otherwise silent.
func (m *Module) OpenErr() error { return m.openErr }

// Stop releases the endpoint, flushing anything still queued so the
// module's last frames (e.g. a leave announcement) actually leave.
func (m *Module) Stop() {
	m.Stk.Unsubscribe(kernel.PeerService, m)
	if m.ep != nil {
		if m.unflush != nil {
			m.flush()
		}
		m.ep.Close()
		m.ep = nil
	}
}

// HandleIndication admits transport routes as membership views change,
// when the transport has explicit routing state (real sockets).
// Implicit-routing fabrics (simnet) need no updates.
//
// Routes are only ADDED here. The transport — and its address book —
// is shared by every stack this process hosts, while a view installs
// on each stack's executor independently: removing a route as soon as
// ONE stack drops the peer would sever co-hosted stacks that have not
// installed the view yet (including retransmissions still carrying the
// eviction commit toward the evicted member). Retirement is therefore
// a process-level decision, taken by whoever owns the process's stack
// set (the dpu layer prunes once no local stack lists the peer).
func (m *Module) HandleIndication(svc kernel.ServiceID, ind kernel.Indication) {
	if svc != kernel.PeerService {
		return
	}
	pc, ok := ind.(kernel.PeersChanged)
	if !ok {
		return
	}
	router, ok := m.tr.(transport.Router)
	if !ok {
		return
	}
	for _, p := range pc.Added {
		ep := pc.Endpoints[p]
		if ep == "" {
			continue // endpoint unknown: leave the book alone
		}
		if err := router.AddRoute(transport.Addr(p), ep); err != nil {
			m.Stk.Logf("udp: admitting route %d -> %q: %v", p, ep, err)
		}
	}
}

// HandleRequest transmits Send requests.
func (m *Module) HandleRequest(_ kernel.ServiceID, req kernel.Request) {
	s, ok := req.(Send)
	if !ok || m.ep == nil {
		return
	}
	m.arm()
	if s.Headroom && len(s.Data) >= wire.FrameOverhead {
		// The sender reserved the frame header: no framing copy at all.
		s.Data[0] = s.Chan
		wire.SealSplitFrame(s.Data, s.Body, uint64(m.Stk.Addr()))
		m.ep.Enqueue(transport.Addr(s.To), s.Data, s.Body)
		return
	}
	w := wire.GetWriter(len(s.Data) + wire.FrameOverhead)
	w.Byte(s.Chan).Pad(wire.FrameOverhead - 1).Raw(s.Data)
	frame := w.Bytes()
	wire.SealSplitFrame(frame, s.Body, uint64(m.Stk.Addr()))
	m.ep.Enqueue(transport.Addr(s.To), frame, s.Body)
	w.Free() // the transport has copied (or sent) the frame
}

// arm registers the end-of-pass flush that transmits what this pass
// enqueues, unless this pass already has. Executor-only.
//
//dpulint:executor
func (m *Module) arm() {
	if m.unflush == nil {
		m.unflush = m.Stk.RegisterFlusher(m.flushFn)
	}
}

// receive runs on a transport goroutine (simnet timer or socket read
// loop); it re-injects the received batch into the stack as ONE
// executor event carrying its surviving indications, delivered to
// listeners in order — a batch of one as a plain Indicate, no slice.
// A frame whose checksum does not verify against the claimed sender is
// counted (wire.frames_rejected) and dropped here, before anything
// above the framing layer can misparse it.
func (m *Module) receive(pkts []transport.Packet) {
	if len(pkts) == 1 {
		if ind, ok := unseal(pkts[0]); ok {
			m.Stk.Indicate(Service, ind)
		}
		return
	}
	inds := make([]kernel.Indication, 0, len(pkts))
	for _, p := range pkts {
		if ind, ok := unseal(p); ok {
			inds = append(inds, ind)
		}
	}
	m.Stk.IndicateBatch(Service, inds)
}

// unseal checks one received frame and turns it into its indication.
func unseal(p transport.Packet) (Recv, bool) {
	tag, payload, ok := wire.OpenFrame(p.Data, uint64(p.From))
	return Recv{From: kernel.Addr(p.From), Chan: tag, Data: payload}, ok
}
