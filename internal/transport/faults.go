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

// FaultConfig parameterises the Faulty decorator, the one fault model
// of every fabric (the simulated LAN only delays and carries packets):
// every non-loopback send is independently lost with probability
// LossRate, and (when it survives) duplicated with probability DupRate,
// then delayed by Delay plus a uniform random jitter in [0, Jitter).
// Loopback (self-addressed) sends are never dropped or delayed.
//
// The decorator also injects adversarial faults: seeded byte-level
// corruption (CorruptRate), reordering via per-datagram hold-back
// (ReorderRate/ReorderDelay), correlated loss bursts
// (BurstRate/BurstLen) and one-way partitions (CutOneWay), which act
// at send time: a datagram already in flight when its link is cut
// still arrives, as on a real wire.
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

// FaultInjector is the runtime-mutable fault surface of the Faulty
// decorator: loss, fixed delay, jitter, byte-level corruption,
// reordering, correlated loss bursts and one-way (asymmetric)
// partitions can all change while traffic flows. Every fault method of
// dpu.Cluster routes through this interface, so an externally supplied
// transport has a fault surface exactly when it implements it.
type FaultInjector interface {
	SetLoss(p float64)
	SetDelay(d time.Duration)
	SetJitter(j time.Duration)
	SetCorrupt(p float64)
	SetReorder(p float64)
	SetBurst(p float64, length int)
	CutOneWay(from, to Addr)
	HealOneWay(from, to Addr)
}

// Faulty layers probabilistic loss, duplication, delay, corruption,
// reordering, burst loss and one-way partitions over any transport —
// the simulated LAN and real sockets alike, so a fault-injection test
// runs unchanged over either. Closing the decorator closes the inner transport and
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

// OpenBatch opens the inner endpoint and wraps its sends: one fate per
// Send or Enqueue, before the inner endpoint packs the survivors into
// datagrams, so fault injection composes with packing and syscall
// amortization.
func (t *FaultyTransport) OpenBatch(addr Addr, recv RecvFunc) (Endpoint, error) {
	ep, err := t.inner.OpenBatch(addr, recv)
	if err != nil {
		return nil, err
	}
	return faultyEndpoint{t: t, ep: ep}, nil
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
// be duplicated. Each feature's RNG is only rolled when
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

// faultyEndpoint decorates an endpoint: every Send and every Enqueue
// rolls one fate (the fate sequence is indifferent to which path
// carried the payload). Survivors of an Enqueue stay on the inner queue
// — packed with whatever else the flush sends their peer, each still
// sealed by its own checksum — and Flush passes through.
type faultyEndpoint struct {
	t  *FaultyTransport
	ep Endpoint
}

func (e faultyEndpoint) Addr() Addr { return e.ep.Addr() }
func (e faultyEndpoint) Flush()     { e.ep.Flush() }
func (e faultyEndpoint) Close()     { e.ep.Close() }

func (e faultyEndpoint) Send(to Addr, data []byte) { e.transmit(to, data, nil, false) }

func (e faultyEndpoint) Enqueue(to Addr, head, body []byte) { e.transmit(to, head, body, true) }

// transmit rolls the fate of the datagram head‖body and hands what
// survives to the inner endpoint: onto its queue when queued, by its
// Send otherwise.
func (e faultyEndpoint) transmit(to Addr, head, body []byte, queued bool) {
	from := e.ep.Addr()
	drop, dup, delay, flips := e.t.fate(to == from, from, to, len(head)+len(body))
	if drop {
		return
	}
	if delay > 0 || len(flips) > 0 {
		// The caller may reuse head once this returns; a held-back or
		// mutated datagram carries its own copy.
		buf := append(append(make([]byte, 0, len(head)+len(body)), head...), body...)
		for _, f := range flips {
			buf[f.pos] ^= f.xor
		}
		if delay > 0 {
			// A delayed datagram re-materializes outside any executor pass
			// (on the sender goroutine on wall time, on the goroutine
			// stepping a virtual clock): no Flush will follow, and only the
			// executor may touch the queue. It leaves through Send, one
			// unbatched transmission per delayed datagram.
			e.t.after(delay, func() { e.pass(to, buf, nil, false, dup) })
			return
		}
		head, body = buf, nil
	}
	e.pass(to, head, body, queued, dup)
}

// pass hands a datagram to the inner endpoint, twice when duplicated.
// Only a queued datagram can have a body: Send has none, and a copied
// one is joined.
func (e faultyEndpoint) pass(to Addr, head, body []byte, queued, dup bool) {
	if queued {
		e.ep.Enqueue(to, head, body)
		if dup {
			e.ep.Enqueue(to, head, body)
		}
		return
	}
	e.ep.Send(to, head)
	if dup {
		e.ep.Send(to, head)
	}
}
