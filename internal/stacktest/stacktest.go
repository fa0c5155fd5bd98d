// Package stacktest assembles multi-stack groups over a simnet fabric
// for the module test suites: one registry shared by n stacks, helpers
// to create protocols on every stack and to wait for cross-stack
// conditions with a deadline.
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
	T      *testing.T
	Net    *simnet.Network
	Tr     transport.Transport // Net wrapped as a transport, for udp.Factory
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
	c.Tr = transport.Sim(c.Net)
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

// Close shuts everything down.
func (c *Cluster) Close() {
	c.Net.Close()
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
