package transport

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/vclock"
)

// Process-wide counters for the adversarial fault features, mirrored
// from FaultStats so operators see them next to wire.frames_rejected.
var (
	corruptedCounter = metrics.NewCounter("transport.corrupted")
	reorderedCounter = metrics.NewCounter("transport.reordered")
)

// FaultConfig parameterises the Faulty decorator with simnet's loss and
// duplication semantics: every non-loopback send is independently lost
// with probability LossRate, and (when it survives) duplicated with
// probability DupRate, then delayed by Delay plus a uniform random
// jitter in [0, Jitter). Loopback (self-addressed) sends are never
// dropped or delayed, matching simnet.
//
// Beyond simnet's model the decorator injects adversarial faults:
// seeded byte-level corruption (CorruptRate), reordering via per-
// datagram hold-back (ReorderRate/ReorderDelay), correlated loss
// bursts (BurstRate/BurstLen) and one-way partitions (CutOneWay).
//
// All rates are runtime-mutable (SetLoss, SetDup, SetDelay, SetJitter,
// SetCorrupt, SetReorder, SetBurst), so a scenario can reshape a live
// link — the environment timelines of cmd/dpu-sim -scenario run on
// exactly this.
type FaultConfig struct {
	// Seed makes packet fates reproducible.
	Seed int64
	// LossRate is the probability a datagram is dropped, in [0, 1].
	LossRate float64
	// DupRate is the probability a datagram is sent twice, in [0, 1].
	DupRate float64
	// Delay postpones every surviving non-loopback datagram.
	Delay time.Duration
	// Jitter adds a uniform random delay in [0, Jitter).
	Jitter time.Duration
	// CorruptRate is the probability a surviving datagram has 1–3 of
	// its bytes flipped in flight, in [0, 1]. The frame checksum
	// (internal/wire) turns corruption into a counted drop at the
	// receiver instead of a misparse.
	CorruptRate float64
	// ReorderRate is the probability a surviving datagram is held back
	// by ReorderDelay so later sends overtake it, in [0, 1].
	ReorderRate float64
	// ReorderDelay is how long a reordered datagram is held back.
	// Zero means a default of 2ms.
	ReorderDelay time.Duration
	// BurstRate is the probability a datagram opens a loss burst that
	// also swallows the next BurstLen-1 non-loopback datagrams, in
	// [0, 1]. Bursts model correlated outages the independent LossRate
	// cannot.
	BurstRate float64
	// BurstLen is the total burst length in datagrams. Zero means a
	// default of 4.
	BurstLen int
	// Clock schedules the delay/jitter timers. Nil means vclock.Wall;
	// under a vclock.Virtual the held-back datagrams release on virtual
	// time, so seeded fault runs replay identically (and never stall
	// waiting for wall timers the virtual clock cannot advance).
	//
	// Under a virtual clock a delayed datagram is sent from the timer
	// callback. On wall time the callback hands it to a sender goroutine
	// instead — a socket write can park on a full buffer, and the clock
	// fires every other timer in the process from the same goroutine —
	// which sends the handed datagrams one at a time in the order their
	// timers fired: (deadline, arming) order, so a delay never reorders
	// two datagrams it holds back by the same amount.
	Clock vclock.Clock
}

// defaultReorderDelay and defaultBurstLen back the zero values of
// FaultConfig.ReorderDelay and FaultConfig.BurstLen.
const (
	defaultReorderDelay = 2 * time.Millisecond
	defaultBurstLen     = 4
)

// FaultStats counts the decorator's interventions.
type FaultStats struct {
	Passed     uint64
	Dropped    uint64
	Duplicated uint64
	Delayed    uint64
	Corrupted  uint64
	Reordered  uint64
	BurstDrops uint64 // datagrams swallowed by loss bursts (incl. openers)
	Blocked    uint64 // datagrams dropped by one-way partitions
}

// Shaper is the runtime-mutable traffic-shaping surface shared by the
// Faulty decorator and (via Cluster.SetLoss and friends) the built-in
// simulated network: loss, fixed delay and jitter can be changed while
// traffic flows. The adaptation scenarios drive their environment
// timelines through this interface.
type Shaper interface {
	SetLoss(p float64)
	SetDelay(d time.Duration)
	SetJitter(j time.Duration)
}

// FaultInjector extends Shaper with the adversarial fault surface of
// the Faulty decorator: byte-level corruption, reordering, correlated
// loss bursts and one-way (asymmetric) partitions, all runtime-mutable.
// Cluster.SetCorrupt and friends route through this interface so an
// externally supplied transport can substitute its own injector.
type FaultInjector interface {
	Shaper
	SetCorrupt(p float64)
	SetReorder(p float64)
	SetBurst(p float64, length int)
	CutOneWay(from, to Addr)
	HealOneWay(from, to Addr)
}

// Faulty layers probabilistic loss, duplication, delay, corruption,
// reordering, burst loss and one-way partitions over any transport, so
// fault-injection tests written against the simnet model also run over
// real sockets. Closing the decorator closes the inner transport and
// discards datagrams still held back by delay.
func Faulty(inner Transport, cfg FaultConfig) *FaultyTransport {
	clock := cfg.Clock
	if clock == nil {
		clock = vclock.Wall
	}
	return &FaultyTransport{
		inner:  inner,
		cfg:    cfg,
		clock:  clock,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		timers: make(map[vclock.Timer]struct{}),
		oneWay: make(map[edge]struct{}),
	}
}

// edge is a directed sender→receiver pair, the unit of one-way cuts.
type edge struct{ from, to Addr }

// flip is one byte mutation a corrupted datagram suffers in flight.
type flip struct {
	pos int
	xor byte
}

// FaultyTransport is the decorator returned by Faulty. All fate rolls
// (loss, duplication, jitter) consume one shared seeded RNG under one
// mutex, so a given send sequence reproduces the same fates run after
// run; concurrent senders serialise on the mutex instead of racing the
// RNG state.
type FaultyTransport struct {
	inner Transport

	mu        sync.Mutex
	cfg       FaultConfig
	clock     vclock.Clock
	rng       *rand.Rand
	stats     FaultStats
	timers    map[vclock.Timer]struct{}
	oneWay    map[edge]struct{}
	burstLeft int // datagrams the current loss burst still swallows
	closed    bool
	outq      []func()       // wall time: delayed sends whose timers fired, oldest first
	sending   bool           // wall time: a sender goroutine drains outq
	sender    sync.WaitGroup // the sender goroutine, waited for by Close
}

// Open opens the inner endpoint and wraps its sender. An inner endpoint
// that batches sends (BatchSender) stays batched through the decorator:
// the wrapper applies one fate per Enqueue, before the inner endpoint
// packs the survivors into datagrams, and forwards Flush, so fault
// injection composes with packing and syscall amortization.
func (t *FaultyTransport) Open(addr Addr, recv RecvFunc) (Endpoint, error) {
	ep, err := t.inner.Open(addr, recv)
	if err != nil {
		return nil, err
	}
	return wrapFaulty(t, ep), nil
}

// OpenBatch opens the inner endpoint in batch-receive mode, shimming
// per-packet delivery into singleton batches over fabrics without a
// batched receive path (simnet). The shim changes nothing observable:
// each datagram still arrives as its own callback, in the same order,
// so seeded scenario runs stay digest-identical. It implements the
// optional BatchOpener extension — the decorator always offers it, as
// it always offers Router.
func (t *FaultyTransport) OpenBatch(addr Addr, recv BatchRecvFunc) (Endpoint, error) {
	var ep Endpoint
	var err error
	if bo, ok := t.inner.(BatchOpener); ok {
		ep, err = bo.OpenBatch(addr, recv)
	} else {
		ep, err = t.inner.Open(addr, func(from Addr, data []byte) {
			recv([]Packet{{From: from, Data: data}})
		})
	}
	if err != nil {
		return nil, err
	}
	return wrapFaulty(t, ep), nil
}

// wrapFaulty picks the decorator shape that preserves the inner
// endpoint's batching capability.
func wrapFaulty(t *FaultyTransport, ep Endpoint) Endpoint {
	fe := faultyEndpoint{t: t, ep: ep}
	if bs, ok := ep.(BatchSender); ok {
		return faultyBatchEndpoint{faultyEndpoint: fe, bs: bs}
	}
	return fe
}

// Close closes the inner transport and cancels delayed datagrams still
// in flight, once a datagram being sent from the delay queue is out.
func (t *FaultyTransport) Close() {
	t.mu.Lock()
	t.closed = true
	for tm := range t.timers {
		tm.Stop()
	}
	t.timers = make(map[vclock.Timer]struct{})
	t.mu.Unlock()
	t.sender.Wait()
	t.inner.Close()
}

// AddRoute forwards to the inner transport when it supports routing;
// a no-op over implicit-routing fabrics, so the decorator is always a
// Router and view-driven route updates pass through it transparently.
func (t *FaultyTransport) AddRoute(addr Addr, endpoint string) error {
	if r, ok := t.inner.(Router); ok {
		return r.AddRoute(addr, endpoint)
	}
	return nil
}

// RemoveRoute forwards to the inner transport when it supports routing.
func (t *FaultyTransport) RemoveRoute(addr Addr) {
	if r, ok := t.inner.(Router); ok {
		r.RemoveRoute(addr)
	}
}

// SetLoss changes the loss probability for subsequent sends.
func (t *FaultyTransport) SetLoss(p float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cfg.LossRate = p
}

// SetDup changes the duplication probability for subsequent sends.
func (t *FaultyTransport) SetDup(p float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cfg.DupRate = p
}

// SetDelay changes the fixed delay for subsequent sends.
func (t *FaultyTransport) SetDelay(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cfg.Delay = d
}

// SetJitter changes the jitter bound for subsequent sends.
func (t *FaultyTransport) SetJitter(j time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cfg.Jitter = j
}

// SetCorrupt changes the byte-corruption probability for subsequent
// sends.
func (t *FaultyTransport) SetCorrupt(p float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cfg.CorruptRate = p
}

// SetReorder changes the reordering probability for subsequent sends.
func (t *FaultyTransport) SetReorder(p float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cfg.ReorderRate = p
}

// SetBurst changes the burst-loss probability and burst length for
// subsequent sends. length <= 0 keeps the current (or default) length.
func (t *FaultyTransport) SetBurst(p float64, length int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cfg.BurstRate = p
	if length > 0 {
		t.cfg.BurstLen = length
	}
}

// CutOneWay blocks datagrams sent from from to to; traffic in the
// opposite direction still flows. Cutting is deterministic (no RNG
// draw), so toggling partitions never perturbs the seeded fate
// sequence of other traffic.
func (t *FaultyTransport) CutOneWay(from, to Addr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.oneWay[edge{from, to}] = struct{}{}
}

// HealOneWay restores the directed link cut by CutOneWay.
func (t *FaultyTransport) HealOneWay(from, to Addr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.oneWay, edge{from, to})
}

// Stats returns a snapshot of the decorator's counters.
func (t *FaultyTransport) Stats() FaultStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// fate rolls the dice for one send; n.b. a dropped datagram cannot also
// be duplicated, as in simnet. Each feature's RNG is only rolled when
// that feature is configured, so enabling and later disabling one
// restores the exact fate sequence tests recorded without it. n is the
// datagram length, bounding corruption positions.
func (t *FaultyTransport) fate(loopback bool, from, to Addr, n int) (drop, dup bool, delay time.Duration, flips []flip) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !loopback {
		if _, cut := t.oneWay[edge{from, to}]; cut {
			t.stats.Blocked++
			return true, false, 0, nil
		}
		// A burst in progress swallows datagrams without consulting the
		// RNG: correlated loss, not another independent roll.
		if t.burstLeft > 0 {
			t.burstLeft--
			t.stats.Dropped++
			t.stats.BurstDrops++
			return true, false, 0, nil
		}
	}
	if !loopback && t.cfg.LossRate > 0 && t.rng.Float64() < t.cfg.LossRate {
		t.stats.Dropped++
		return true, false, 0, nil
	}
	if !loopback && t.cfg.BurstRate > 0 && t.rng.Float64() < t.cfg.BurstRate {
		length := t.cfg.BurstLen
		if length <= 0 {
			length = defaultBurstLen
		}
		t.burstLeft = length - 1
		t.stats.Dropped++
		t.stats.BurstDrops++
		return true, false, 0, nil
	}
	if !loopback && t.cfg.DupRate > 0 && t.rng.Float64() < t.cfg.DupRate {
		t.stats.Duplicated++
		dup = true
	}
	if !loopback && n > 0 && t.cfg.CorruptRate > 0 && t.rng.Float64() < t.cfg.CorruptRate {
		flips = make([]flip, 1+t.rng.Intn(3))
		for i := range flips {
			flips[i] = flip{pos: t.rng.Intn(n), xor: byte(1 + t.rng.Intn(255))}
		}
		t.stats.Corrupted++
		corruptedCounter.Add(1)
	}
	if !loopback {
		delay = t.cfg.Delay
		if t.cfg.Jitter > 0 {
			delay += time.Duration(t.rng.Int63n(int64(t.cfg.Jitter)))
		}
		if t.cfg.ReorderRate > 0 && t.rng.Float64() < t.cfg.ReorderRate {
			rd := t.cfg.ReorderDelay
			if rd <= 0 {
				rd = defaultReorderDelay
			}
			delay += rd
			t.stats.Reordered++
			reorderedCounter.Add(1)
		}
	}
	t.stats.Passed++
	if delay > 0 {
		t.stats.Delayed++
	}
	return false, dup, delay, flips
}

// after schedules a delayed transmission, tracked so Close can cancel
// it. The data has already been copied by the caller.
func (t *FaultyTransport) after(delay time.Duration, send func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	inline := vclock.IsVirtual(t.clock)
	var tm vclock.Timer
	tm = t.clock.AfterFunc(delay, func() {
		t.mu.Lock()
		delete(t.timers, tm)
		if t.closed {
			t.mu.Unlock()
			return
		}
		if inline {
			t.mu.Unlock()
			send()
			return
		}
		t.outq = append(t.outq, send)
		start := !t.sending
		if start {
			t.sending = true
			t.sender.Add(1)
		}
		t.mu.Unlock()
		if start {
			go t.drain()
		}
	})
	t.timers[tm] = struct{}{}
}

// drain is the wall-time sender goroutine: it sends the handed-off
// datagrams in order and exits when none are left.
func (t *FaultyTransport) drain() {
	defer t.sender.Done()
	for {
		t.mu.Lock()
		if len(t.outq) == 0 || t.closed {
			t.outq, t.sending = nil, false
			t.mu.Unlock()
			return
		}
		send := t.outq[0]
		t.outq[0] = nil
		t.outq = t.outq[1:]
		t.mu.Unlock()
		send()
	}
}

type faultyEndpoint struct {
	t  *FaultyTransport
	ep Endpoint
}

func (e faultyEndpoint) Addr() Addr { return e.ep.Addr() }

func (e faultyEndpoint) Send(to Addr, data []byte) {
	from := e.ep.Addr()
	drop, dup, delay, flips := e.t.fate(to == from, from, to, len(data))
	if drop {
		return
	}
	if delay <= 0 && len(flips) == 0 {
		e.ep.Send(to, data)
		if dup {
			e.ep.Send(to, data)
		}
		return
	}
	// The transport contract lets the caller reuse data once Send
	// returns; a held-back or mutated datagram must carry its own copy.
	buf := append([]byte(nil), data...)
	for _, f := range flips {
		buf[f.pos] ^= f.xor
	}
	if delay <= 0 {
		e.ep.Send(to, buf)
		if dup {
			e.ep.Send(to, buf)
		}
		return
	}
	e.t.after(delay, func() {
		e.ep.Send(to, buf)
		if dup {
			e.ep.Send(to, buf)
		}
	})
}

func (e faultyEndpoint) Close() { e.ep.Close() }

// faultyBatchEndpoint decorates a batching endpoint: every Enqueue
// rolls the same fate as Send would (the fate sequence is indifferent
// to which path carried the payload), survivors stay on the inner batch
// queue — packed with whatever else the flush sends their peer, each
// still sealed by its own checksum — and Flush passes through.
type faultyBatchEndpoint struct {
	faultyEndpoint
	bs BatchSender
}

func (e faultyBatchEndpoint) Enqueue(to Addr, data []byte) {
	from := e.ep.Addr()
	drop, dup, delay, flips := e.t.fate(to == from, from, to, len(data))
	if drop {
		return
	}
	if delay <= 0 && len(flips) == 0 {
		e.bs.Enqueue(to, data)
		if dup {
			e.bs.Enqueue(to, data)
		}
		return
	}
	// Held-back or mutated datagrams carry their own copy, as in Send.
	buf := append([]byte(nil), data...)
	for _, f := range flips {
		buf[f.pos] ^= f.xor
	}
	if delay <= 0 {
		e.bs.Enqueue(to, buf)
		if dup {
			e.bs.Enqueue(to, buf)
		}
		return
	}
	// A delayed datagram re-materializes outside any executor pass (on
	// the sender goroutine on wall time, on the goroutine stepping a
	// virtual clock) — no Flush will follow, and BatchSender's
	// single-caller contract forbids touching the queue from here. Send
	// it directly: one unbatched syscall per delayed datagram is the cost
	// of shaping it.
	e.t.after(delay, func() {
		e.ep.Send(to, buf)
		if dup {
			e.ep.Send(to, buf)
		}
	})
}

func (e faultyBatchEndpoint) Flush() { e.bs.Flush() }
