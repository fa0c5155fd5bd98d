package scenario

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/vclock"
)

// runClock is the driver's view of time. Under `transport: sim` it is
// the virtual clock — RunFor executes the whole event schedule inline
// and deterministically. Over real-socket transports (udp, tcp) it is
// the wall clock: RunFor genuinely sleeps while the cluster runs on
// kernel timers, and AfterFunc callbacks fire on their own goroutines,
// which is why the driver's callback state is atomics-and-mutex safe.
type runClock interface {
	AfterFunc(d time.Duration, fn func())
	RunFor(d time.Duration)
	Elapsed() time.Duration
	Base() time.Time
	// ExpectGrace is how long a phase-boundary expectation may keep
	// polling before it fails. Zero under the virtual clock: there the
	// boundary is quiescent by construction, so an unmet expectation is
	// already final. Over real sockets the boundary is just a point in
	// wall time — a 50-stack protocol switch can straddle it by a few
	// hundred milliseconds of scheduling noise without anything being
	// wrong, so the driver grants a bounded convergence window.
	ExpectGrace() time.Duration
}

// virtualRunClock adapts vclock.Virtual (whose AfterFunc returns a
// Timer handle the driver never cancels).
type virtualRunClock struct{ *vclock.Virtual }

func (v virtualRunClock) AfterFunc(d time.Duration, fn func()) { v.Virtual.AfterFunc(d, fn) }

func (v virtualRunClock) ExpectGrace() time.Duration { return 0 }

// wallRunClock drives real-transport runs on vclock.Wall.
type wallRunClock struct{ base time.Time }

func newWallRunClock() *wallRunClock { return &wallRunClock{base: vclock.Wall.Now()} }

// AfterFunc runs fn on a goroutine of its own: an action may wait (a
// workload tick on Broadcast's backpressure, a crash on the executor),
// and Wall's callbacks must not block.
func (w *wallRunClock) AfterFunc(d time.Duration, fn func()) {
	vclock.Wall.AfterFunc(d, func() { go fn() })
}

func (w *wallRunClock) RunFor(d time.Duration) {
	done := make(chan struct{})
	vclock.Wall.AfterFunc(d, func() { close(done) })
	<-done
}

func (w *wallRunClock) Elapsed() time.Duration { return vclock.Wall.Now().Sub(w.base) }

func (w *wallRunClock) Base() time.Time { return w.base }

func (w *wallRunClock) ExpectGrace() time.Duration { return 2 * time.Second }

// reserveEndpoints binds n ephemeral loopback sockets of the given
// kind ("udp" or "tcp"), records their addresses and releases them, so
// the transport about to be built can re-bind them. The usual
// reservation caveat applies — another process could grab a port in
// the window — which is acceptable for test drivers on loopback.
func reserveEndpoints(kind string, n int) ([]string, error) {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		switch kind {
		case "udp":
			pc, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				return nil, fmt.Errorf("reserve udp endpoint: %w", err)
			}
			out = append(out, pc.LocalAddr().String())
			pc.Close()
		case "tcp":
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, fmt.Errorf("reserve tcp endpoint: %w", err)
			}
			out = append(out, l.Addr().String())
			l.Close()
		default:
			return nil, fmt.Errorf("reserve endpoints: unknown transport %q", kind)
		}
	}
	return out, nil
}

// endpointPool hands out pre-reserved endpoints to add-node and
// restart actions over real transports (each admission needs a fresh
// socket address; ids — and therefore endpoints — are never reused).
// The nil pool is the simulated network: every draw is the empty
// endpoint, which is what the simulated fabric expects.
type endpointPool struct {
	mu   sync.Mutex
	free []string
}

func (p *endpointPool) next() string {
	if p == nil {
		return ""
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) == 0 {
		return ""
	}
	ep := p.free[0]
	p.free = p.free[1:]
	return ep
}

// joinBudget counts the actions that admit a member over the run — the
// number of extra endpoints a real-transport run must reserve up front.
func (sc *Scenario) joinBudget() int {
	n := 0
	for _, ph := range sc.Phases {
		for _, a := range ph.Actions {
			if a.Action == "add-node" || a.Action == "restart" {
				n++
			}
		}
	}
	return n
}
