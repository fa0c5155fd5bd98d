// Package simnet is the network substrate substituting for the paper's
// cluster (7 PCs on a 100Base-TX switch). It is an in-memory datagram
// fabric with a parameterised latency model: one-way base latency,
// uniform jitter, a bandwidth term proportional to packet size and a
// bounded per-NIC egress queue. Packets are delivered asynchronously by
// the fabric's clock — on wall time one pacer goroutine, in (deadline,
// send order); under vclock.Virtual the driver of the clock — and
// receivers re-inject them into their stack's executor.
//
// The fabric only delays and carries packets; it never loses,
// duplicates or cuts them on purpose. Faults (loss, duplication,
// partitions, corruption, reordering) are injected by the
// transport.Faulty decorator layered over it, the same decorator that
// shapes real sockets.
//
// The stack does not use this package directly: transport.Sim adapts a
// Network to the internal/transport interface, next to the real-socket
// backend (see internal/transport).
package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/vclock"
)

// Addr identifies an endpoint (one per stack).
type Addr int

// Config parameterises the fabric. The zero value is a perfect network
// with zero latency.
type Config struct {
	// Seed makes the jitter draws reproducible.
	Seed int64
	// BaseLatency is the one-way propagation delay.
	BaseLatency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter).
	Jitter time.Duration
	// BandwidthBps, when > 0, adds size*8/BandwidthBps of transmission
	// delay per packet.
	BandwidthBps float64
	// SerializeEgress, when true together with BandwidthBps, models a
	// per-NIC transmit queue: a sender's packets serialize through its
	// link, so fan-out (n-1 unicasts per broadcast) costs grow with the
	// group size — the effect that makes larger groups slower on real
	// hardware.
	SerializeEgress bool
	// EgressQueueLimit bounds the transmit queue (as queueing delay):
	// packets that would wait longer are tail-dropped, like a real NIC
	// or switch buffer. 0 means a 50ms default when SerializeEgress is
	// on. Without a bound, congestion turns into unbounded bufferbloat
	// instead of the loss that congestion control needs to observe.
	EgressQueueLimit time.Duration
	// LoopbackLatency is the delay for self-addressed packets.
	LoopbackLatency time.Duration
	// Clock supplies delivery timers and the egress-queue timebase. Nil
	// or vclock.Wall means wall time, kept by a vclock.Paced the network
	// owns: the fabric's sleeper, not the process heap's (vclock.Paced
	// says why); a vclock.Virtual runs the whole fabric under
	// deterministic virtual time. Fixed at New; Update cannot change it.
	Clock vclock.Clock
}

// Stats counts fabric activity. Retrieve a snapshot with Network.Stats.
type Stats struct {
	Sent       uint64
	Delivered  uint64
	QueueDrops uint64 // egress-queue tail drops (congestion)
	Closed     uint64 // packets that found their endpoint (or the network) closed
	Bytes      uint64
}

// ErrClosed is returned by operations on a closed network.
var ErrClosed = errors.New("simnet: network closed")

type link struct{ a, b Addr }

func mkLink(a, b Addr) link {
	if a > b {
		a, b = b, a
	}
	return link{a, b}
}

// Network is the shared fabric connecting all endpoints of a group.
type Network struct {
	mu      sync.Mutex
	cfg     Config
	clock   vclock.Clock
	pacer   *vclock.Paced // clock, when the network runs on wall time and owns it
	rng     *rand.Rand
	eps     map[Addr]*Endpoint
	latency map[link]time.Duration // per-link override
	egress  map[Addr]time.Time     // per-NIC transmit queue tail
	timers  map[vclock.Timer]struct{}
	stats   Stats
	closed  bool
}

// New creates a network with the given configuration.
func New(cfg Config) *Network {
	clock := cfg.Clock
	var pacer *vclock.Paced
	if clock == nil || clock == vclock.Wall {
		pacer = vclock.NewPaced()
		clock = pacer
	}
	return &Network{
		cfg:     cfg,
		clock:   clock,
		pacer:   pacer,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		eps:     make(map[Addr]*Endpoint),
		latency: make(map[link]time.Duration),
		egress:  make(map[Addr]time.Time),
		timers:  make(map[vclock.Timer]struct{}),
	}
}

// Endpoint is one stack's attachment point.
type Endpoint struct {
	net  *Network
	addr Addr
	recv func(from Addr, data []byte)
}

// Addr returns the endpoint's address.
func (e *Endpoint) Addr() Addr { return e.addr }

// Close detaches the endpoint; in-flight packets to it are discarded
// and the address becomes available again.
func (e *Endpoint) Close() {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	if e.net.eps[e.addr] == e {
		delete(e.net.eps, e.addr)
	}
}

// Open attaches an endpoint at addr. recv is invoked on the clock's
// goroutine (the wall-time pacer, or the virtual clock's driver) for
// every delivered packet, one packet at a time; it must hand the packet
// to the stack's executor and return quickly.
func (n *Network) Open(addr Addr, recv func(from Addr, data []byte)) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, dup := n.eps[addr]; dup {
		return nil, fmt.Errorf("simnet: endpoint %d already open", addr)
	}
	ep := &Endpoint{net: n, addr: addr, recv: recv}
	n.eps[addr] = ep
	return ep, nil
}

// Send transmits data to the endpoint at to. The data is copied; the
// caller may reuse the buffer. Sending never blocks.
func (e *Endpoint) Send(to Addr, data []byte) {
	n := e.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.stats.Sent++
	n.stats.Bytes += uint64(len(data))
	delay, ok := n.delayLocked(e.addr, to, len(data))
	if !ok {
		n.stats.QueueDrops++
		return
	}
	n.scheduleLocked(delay, e.addr, to, append([]byte(nil), data...))
}

// delayLocked computes one packet's delay; n.mu must be held. The
// second result is false when the sender's egress queue is full and the
// packet is tail-dropped.
func (n *Network) delayLocked(from, to Addr, size int) (time.Duration, bool) {
	if from == to {
		return n.cfg.LoopbackLatency, true
	}
	d := n.cfg.BaseLatency
	if ov, ok := n.latency[mkLink(from, to)]; ok {
		d = ov
	}
	if n.cfg.Jitter > 0 {
		d += time.Duration(n.rng.Int63n(int64(n.cfg.Jitter)))
	}
	if n.cfg.BandwidthBps > 0 {
		tx := time.Duration(float64(size*8) / n.cfg.BandwidthBps * float64(time.Second))
		if n.cfg.SerializeEgress {
			// The packet leaves only when the NIC's queue has drained;
			// a queue beyond the limit tail-drops instead.
			limit := n.cfg.EgressQueueLimit
			if limit <= 0 {
				limit = 50 * time.Millisecond
			}
			now := n.clock.Now()
			tail := n.egress[from]
			if tail.Before(now) {
				tail = now
			}
			// Tail-drop when the backlog (waiting time) exceeds the
			// limit. The packet's own transmission time is not counted:
			// any packet can pass an idle link, however large.
			if tail.Sub(now) > limit {
				return 0, false
			}
			tail = tail.Add(tx)
			n.egress[from] = tail
			d += tail.Sub(now)
		} else {
			d += tx
		}
	}
	return d, true
}

// scheduleLocked arms the delivery timer; n.mu must be held.
func (n *Network) scheduleLocked(delay time.Duration, from, to Addr, data []byte) {
	var tm vclock.Timer
	tm = n.clock.AfterFunc(delay, func() {
		n.mu.Lock()
		delete(n.timers, tm)
		ep := n.eps[to]
		if n.closed || ep == nil {
			n.stats.Closed++
			n.mu.Unlock()
			return
		}
		n.stats.Delivered++
		recv := ep.recv
		n.mu.Unlock()
		recv(from, data)
	})
	n.timers[tm] = struct{}{}
}

// SetLinkLatency overrides the base latency of one link.
func (n *Network) SetLinkLatency(a, b Addr, d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.latency[mkLink(a, b)] = d
}

// Update atomically adjusts the configuration (e.g. to change the
// latency or jitter mid-experiment). The seed and RNG are unaffected.
func (n *Network) Update(fn func(*Config)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	fn(&n.cfg)
}

// Stats returns a snapshot of fabric counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Close shuts the fabric down: pending deliveries are cancelled,
// subsequent sends discarded and, on wall time, the pacer released. It
// must not be called from a recv callback.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	for tm := range n.timers {
		tm.Stop()
	}
	n.timers = make(map[vclock.Timer]struct{})
	n.mu.Unlock()
	if n.pacer != nil {
		// Outside n.mu: the pacer may be inside a delivery waiting for it.
		n.pacer.Close()
	}
}
