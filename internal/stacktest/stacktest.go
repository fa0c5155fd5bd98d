// Package stacktest assembles multi-stack groups over a simnet fabric
// for the module test suites: one registry shared by n stacks, helpers
// to create protocols on every stack, to inject faults and to wait for
// cross-stack conditions with a deadline.
package stacktest

import (
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// Cluster is a group of stacks wired to one fabric.
type Cluster struct {
	T   *testing.T
	Net *simnet.Network
	// Faults wraps Net in the Faulty decorator, every rate at zero: the
	// group's one fault surface (loss, duplication, cuts).
	Faults *transport.FaultyTransport
	Tr     transport.Transport // Faults, for udp.Factory
	Reg    *kernel.Registry
	Stacks []*kernel.Stack
}

// New builds n stacks over a fabric with the given config. The caller
// registers factories on c.Reg and then calls CreateAll. A clock in
// netCfg also times the stacks: with a vclock.Virtual the whole group
// runs in virtual time, driven by the test through RunFor.
func New(t *testing.T, n int, netCfg simnet.Config, tracer kernel.Tracer) *Cluster {
	t.Helper()
	c := &Cluster{
		T:   t,
		Net: simnet.New(netCfg),
		Reg: kernel.NewRegistry(),
	}
	c.Faults = transport.Faulty(transport.Sim(c.Net), transport.FaultConfig{Seed: netCfg.Seed, Clock: netCfg.Clock})
	c.Tr = c.Faults
	peers := make([]kernel.Addr, n)
	for i := range peers {
		peers[i] = kernel.Addr(i)
	}
	for i := 0; i < n; i++ {
		st := kernel.NewStack(kernel.Config{
			Addr:     kernel.Addr(i),
			Peers:    peers,
			Registry: c.Reg,
			Tracer:   tracer,
			Seed:     int64(netCfg.Seed) + int64(i),
			Clock:    netCfg.Clock,
		})
		if vr, ok := netCfg.Clock.(vclock.Registrar); ok {
			vr.Register(st)
		}
		c.Stacks = append(c.Stacks, st)
	}
	t.Cleanup(c.Close)
	return c
}

// CreateAll instantiates the protocol (with its create_module
// recursion) on every stack.
func (c *Cluster) CreateAll(protocol string) {
	c.T.Helper()
	for i, st := range c.Stacks {
		err := st.DoSync(func() {
			if _, e := st.CreateProtocol(protocol); e != nil {
				c.T.Errorf("stack %d: CreateProtocol(%q): %v", i, protocol, e)
			}
		})
		if err != nil {
			c.T.Fatalf("stack %d: %v", i, err)
		}
	}
}

// Cut severs the link between stacks a and b in both directions. A
// cut acts at send time: what is already in flight still arrives.
func (c *Cluster) Cut(a, b int) {
	c.Faults.CutOneWay(transport.Addr(a), transport.Addr(b))
	c.Faults.CutOneWay(transport.Addr(b), transport.Addr(a))
}

// Heal restores the link Cut severed.
func (c *Cluster) Heal(a, b int) {
	c.Faults.HealOneWay(transport.Addr(a), transport.Addr(b))
	c.Faults.HealOneWay(transport.Addr(b), transport.Addr(a))
}

// Isolate cuts every link of stack i: it goes silent. A test that
// models a crash rather than a silence also crashes the stack.
func (c *Cluster) Isolate(i int) {
	for j := range c.Stacks {
		if j != i {
			c.Cut(i, j)
		}
	}
}

// Rejoin heals every link Isolate cut.
func (c *Cluster) Rejoin(i int) {
	for j := range c.Stacks {
		if j != i {
			c.Heal(i, j)
		}
	}
}

// Close shuts everything down.
func (c *Cluster) Close() {
	c.Faults.Close()
	for _, st := range c.Stacks {
		if st.Running() {
			st.Close()
		}
	}
}

// Eventually polls cond until it returns true or the deadline passes.
// cond runs on the caller's goroutine; use stack-safe accessors inside.
func (c *Cluster) Eventually(d time.Duration, what string, cond func() bool) {
	c.T.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.T.Fatalf("timed out after %v waiting for %s", d, what)
}

// CounterDelta returns a function reporting how far a process-wide
// counter has moved since CounterDelta was called: the registry is shared
// by every cluster of the test binary, so tests assert deltas.
func CounterDelta() func(name string) uint64 {
	before := metrics.Counters()
	return func(name string) uint64 { return metrics.Counters()[name] - before[name] }
}

// OnSync runs fn on stack i's executor and waits.
func (c *Cluster) OnSync(i int, fn func()) {
	c.T.Helper()
	if err := c.Stacks[i].DoSync(fn); err != nil {
		c.T.Fatalf("stack %d: %v", i, err)
	}
}
