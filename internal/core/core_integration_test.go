package core_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/abcast"
	"repro/internal/audit"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/kernel"
	"repro/internal/rbcast"
	"repro/internal/rp2p"
	"repro/internal/simnet"
	"repro/internal/stacktest"
	"repro/internal/udp"
)

const timeout = 30 * time.Second

// appSink records rAdeliver and Switched indications on one stack and
// feeds them, in indication order, to the group's auditor.
type appSink struct {
	kernel.Base
	id       int
	aud      *audit.Auditor
	mu       sync.Mutex
	delivers []core.Deliver
	switches []core.Switched
}

func newAppSink(st *kernel.Stack, id int, aud *audit.Auditor) *appSink {
	return &appSink{Base: kernel.NewBase(st, "app-sink"), id: id, aud: aud}
}

func (s *appSink) HandleIndication(_ kernel.ServiceID, ind kernel.Indication) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch v := ind.(type) {
	case core.Deliver:
		s.delivers = append(s.delivers, v)
		s.aud.Deliver(s.id, int(v.Origin), v.Data)
	case core.Switched:
		s.switches = append(s.switches, v)
		s.aud.Switch(s.id, v.Sn, v.Protocol)
	}
}

func (s *appSink) deliverCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.delivers)
}

func (s *appSink) switchCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.switches)
}

// buildDPU assembles n stacks with the full Figure-4 stack plus Repl,
// traced by one auditor that the sinks also feed. tracer, when non-nil,
// sees every trace event after the auditor.
func buildDPU(t *testing.T, n int, netCfg simnet.Config, replCfg core.Config, tracer kernel.Tracer) (*stacktest.Cluster, []*appSink) {
	t.Helper()
	aud := audit.New()
	var tr kernel.Tracer = aud
	if tracer != nil {
		tr = teeTracer{aud, tracer}
	}
	c := stacktest.New(t, n, netCfg, tr)
	c.Reg.MustRegister(udp.Factory(c.Tr))
	c.Reg.MustRegister(rp2p.Factory(rp2p.Config{RTO: 5 * time.Millisecond}))
	c.Reg.MustRegister(rbcast.Factory(rbcast.Config{}))
	c.Reg.MustRegister(fd.Factory(fd.Config{Interval: 5 * time.Millisecond, Timeout: 60 * time.Millisecond}))
	c.Reg.MustRegister(consensus.Factory())
	if replCfg.Grace == 0 {
		replCfg.Grace = 150 * time.Millisecond
	}
	c.Reg.MustRegister(core.Factory(replCfg))
	c.CreateAll(core.Protocol)
	sinks := make([]*appSink, n)
	for i := range sinks {
		i := i
		c.OnSync(i, func() {
			sinks[i] = newAppSink(c.Stacks[i], i, aud)
			c.Stacks[i].AddModule(sinks[i])
			c.Stacks[i].Subscribe(core.Service, sinks[i])
		})
	}
	return c, sinks
}

func waitDelivered(t *testing.T, c *stacktest.Cluster, sinks []*appSink, want int, skip map[int]bool) {
	t.Helper()
	c.Eventually(timeout, fmt.Sprintf("%d deliveries on every live stack", want), func() bool {
		for i, s := range sinks {
			if skip[i] {
				continue
			}
			if s.deliverCount() < want {
				return false
			}
		}
		return true
	})
}

type teeTracer [2]kernel.Tracer

func (t teeTracer) Trace(ev kernel.TraceEvent) {
	t[0].Trace(ev)
	t[1].Trace(ev)
}

// checkIdenticalSequences asserts the auditor's report is clean (one
// total order, exactly once, switches agreed at one position, the
// Section-3 properties) and that every live stack delivered the same
// number of messages (agreement at quiescence). Skipped stacks crashed:
// their logs need only be a prefix. The Section-3 properties are
// "eventually" ones and a switch may still be completing on some
// stack, so the report is polled; a safety violation never clears.
func checkIdenticalSequences(t *testing.T, sinks []*appSink, skip map[int]bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for err := sinks[0].aud.Report().Err(); err != nil; err = sinks[0].aud.Report().Err() {
		if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	ref, refIdx := -1, -1
	for i, s := range sinks {
		if skip[i] {
			continue
		}
		if got := s.deliverCount(); ref < 0 {
			ref, refIdx = got, i
		} else if got != ref {
			t.Fatalf("stack %d delivered %d, stack %d delivered %d", i, got, refIdx, ref)
		}
	}
}

func TestBroadcastWithoutSwitch(t *testing.T) {
	c, sinks := buildDPU(t, 3, simnet.Config{}, core.Config{}, nil)
	for k := 0; k < 10; k++ {
		c.Stacks[k%3].Call(core.Service, core.Broadcast{Data: []byte(fmt.Sprintf("m%d", k))})
	}
	waitDelivered(t, c, sinks, 10, nil)
	checkIdenticalSequences(t, sinks, nil)
}

func TestCTtoCTReplacementUnderLoad(t *testing.T) {
	// The paper's measured experiment: replace Chandra-Toueg ABcast by
	// the same protocol mid-run, under constant load.
	c, sinks := buildDPU(t, 3, simnet.Config{Seed: 31, BaseLatency: 500 * time.Microsecond},
		core.Config{InitialProtocol: abcast.ProtocolCT}, nil)
	stop := make(chan struct{})
	var sent int
	var mu sync.Mutex
	go func() {
		k := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.Stacks[k%3].Call(core.Service, core.Broadcast{Data: []byte(fmt.Sprintf("m%d", k))})
			mu.Lock()
			sent++
			mu.Unlock()
			k++
			time.Sleep(time.Millisecond)
		}
	}()
	time.Sleep(30 * time.Millisecond)
	c.Stacks[1].Call(core.Service, core.ChangeProtocol{Protocol: abcast.ProtocolCT})
	c.Eventually(timeout, "all stacks switched", func() bool {
		for _, s := range sinks {
			if s.switchCount() != 1 {
				return false
			}
		}
		return true
	})
	time.Sleep(30 * time.Millisecond)
	close(stop)
	mu.Lock()
	total := sent
	mu.Unlock()
	waitDelivered(t, c, sinks, total, nil)
	checkIdenticalSequences(t, sinks, nil)
}

func TestSwitchMatrixPreservesTotalOrder(t *testing.T) {
	pairs := [][2]string{
		{abcast.ProtocolCT, abcast.ProtocolSeq},
		{abcast.ProtocolSeq, abcast.ProtocolToken},
		{abcast.ProtocolToken, abcast.ProtocolCT},
		{abcast.ProtocolSeq, abcast.ProtocolCT},
	}
	for _, pair := range pairs {
		pair := pair
		t.Run(fmt.Sprintf("%s_to_%s", pair[0], pair[1]), func(t *testing.T) {
			c, sinks := buildDPU(t, 3, simnet.Config{Seed: 32, BaseLatency: 500 * time.Microsecond},
				core.Config{InitialProtocol: pair[0]}, nil)
			const pre, post = 10, 10
			for k := 0; k < pre; k++ {
				c.Stacks[k%3].Call(core.Service, core.Broadcast{Data: []byte(fmt.Sprintf("pre%d", k))})
			}
			c.Stacks[0].Call(core.Service, core.ChangeProtocol{Protocol: pair[1]})
			for k := 0; k < post; k++ {
				c.Stacks[k%3].Call(core.Service, core.Broadcast{Data: []byte(fmt.Sprintf("post%d", k))})
			}
			c.Eventually(timeout, "switch everywhere", func() bool {
				for _, s := range sinks {
					if s.switchCount() != 1 {
						return false
					}
				}
				return true
			})
			waitDelivered(t, c, sinks, pre+post, nil)
			checkIdenticalSequences(t, sinks, nil)
			// Verify the switch actually took effect.
			for i := range sinks {
				got := make(chan core.Status, 1)
				c.Stacks[i].Call(core.Service, core.StatusReq{Reply: func(s core.Status) { got <- s }})
				s := <-got
				if s.Protocol != pair[1] || s.Sn != 1 {
					t.Errorf("stack %d status = %+v", i, s)
				}
			}
		})
	}
}

func TestChainOfSwitches(t *testing.T) {
	chain := []string{abcast.ProtocolSeq, abcast.ProtocolToken, abcast.ProtocolCT, abcast.ProtocolSeq}
	c, sinks := buildDPU(t, 3, simnet.Config{Seed: 33},
		core.Config{InitialProtocol: abcast.ProtocolCT, Grace: 80 * time.Millisecond}, nil)
	msgs := 0
	for step, next := range chain {
		for k := 0; k < 5; k++ {
			c.Stacks[k%3].Call(core.Service, core.Broadcast{Data: []byte(fmt.Sprintf("s%d-m%d", step, k))})
			msgs++
		}
		c.Stacks[step%3].Call(core.Service, core.ChangeProtocol{Protocol: next})
		want := step + 1
		c.Eventually(timeout, fmt.Sprintf("switch %d everywhere", want), func() bool {
			for _, s := range sinks {
				if s.switchCount() < want {
					return false
				}
			}
			return true
		})
	}
	waitDelivered(t, c, sinks, msgs, nil)
	checkIdenticalSequences(t, sinks, nil)
}

func TestApplicationNeverBlockedDuringSwitch(t *testing.T) {
	// The paper's claim vs Maestro: the application on top of the stack
	// is never blocked. Broadcast calls issued in the middle of the
	// switch window must all be accepted and eventually delivered.
	c, sinks := buildDPU(t, 3, simnet.Config{Seed: 34, BaseLatency: 2 * time.Millisecond},
		core.Config{InitialProtocol: abcast.ProtocolCT}, nil)
	c.Stacks[0].Call(core.Service, core.ChangeProtocol{Protocol: abcast.ProtocolSeq})
	// Immediately flood during the switch window.
	const burst = 30
	for k := 0; k < burst; k++ {
		c.Stacks[k%3].Call(core.Service, core.Broadcast{Data: []byte(fmt.Sprintf("mid%d", k))})
	}
	waitDelivered(t, c, sinks, burst, nil)
	checkIdenticalSequences(t, sinks, nil)
}

func TestInitiatorCrashAfterChangeRequest(t *testing.T) {
	// The initiator crashes right after requesting the change. Uniform
	// agreement of the underlying ABcast guarantees the survivors agree
	// on whether the change happened; traffic must keep flowing either
	// way.
	c, sinks := buildDPU(t, 5, simnet.Config{Seed: 35, BaseLatency: time.Millisecond},
		core.Config{InitialProtocol: abcast.ProtocolCT}, nil)
	for k := 0; k < 5; k++ {
		c.Stacks[k%5].Call(core.Service, core.Broadcast{Data: []byte(fmt.Sprintf("pre%d", k))})
	}
	waitDelivered(t, c, sinks, 5, nil)
	c.Stacks[2].Call(core.Service, core.ChangeProtocol{Protocol: abcast.ProtocolCT})
	time.Sleep(5 * time.Millisecond)
	c.Stacks[2].Crash()
	skip := map[int]bool{2: true}
	// Post-crash traffic from a survivor.
	for k := 0; k < 10; k++ {
		c.Stacks[0].Call(core.Service, core.Broadcast{Data: []byte(fmt.Sprintf("post%d", k))})
	}
	waitDelivered(t, c, sinks, 15, skip)
	// Survivors must agree on the number of switches that happened.
	time.Sleep(100 * time.Millisecond)
	ref := -1
	for i, s := range sinks {
		if skip[i] {
			continue
		}
		if ref == -1 {
			ref = s.switchCount()
		} else if s.switchCount() != ref {
			t.Fatalf("stack %d saw %d switches, another saw %d (agreement on change violated)",
				i, s.switchCount(), ref)
		}
	}
	checkIdenticalSequences(t, sinks, skip)
}

func TestConcurrentChangesResolveConsistently(t *testing.T) {
	// Two stacks request different protocols at the same time in the
	// same epoch: the first in total order wins; with RetryLostChange
	// both eventually apply, in the same order everywhere.
	c, sinks := buildDPU(t, 3, simnet.Config{Seed: 36, BaseLatency: time.Millisecond},
		core.Config{InitialProtocol: abcast.ProtocolCT, RetryLostChange: true}, nil)
	c.Stacks[0].Call(core.Service, core.ChangeProtocol{Protocol: abcast.ProtocolSeq})
	c.Stacks[1].Call(core.Service, core.ChangeProtocol{Protocol: abcast.ProtocolToken})
	c.Eventually(timeout, "both changes applied", func() bool {
		for _, s := range sinks {
			if s.switchCount() < 2 {
				return false
			}
		}
		return true
	})
	time.Sleep(100 * time.Millisecond)
	// All stacks end at the same protocol and epoch.
	var refStatus core.Status
	for i := range sinks {
		got := make(chan core.Status, 1)
		c.Stacks[i].Call(core.Service, core.StatusReq{Reply: func(s core.Status) { got <- s }})
		s := <-got
		if i == 0 {
			refStatus = s
		} else if s.Sn != refStatus.Sn || s.Protocol != refStatus.Protocol ||
			s.Undelivered != refStatus.Undelivered || s.ViewID != refStatus.ViewID ||
			fmt.Sprint(s.Members) != fmt.Sprint(refStatus.Members) {
			t.Errorf("stack %d status %+v != stack 0 status %+v", i, s, refStatus)
		}
	}
	// Switch sequences must match across stacks.
	var refSwitches []string
	for i, s := range sinks {
		s.mu.Lock()
		var seq []string
		for _, sw := range s.switches {
			seq = append(seq, fmt.Sprintf("%d:%s", sw.Sn, sw.Protocol))
		}
		s.mu.Unlock()
		if refSwitches == nil {
			refSwitches = seq
		} else if fmt.Sprint(seq) != fmt.Sprint(refSwitches) {
			t.Errorf("stack %d switch sequence %v != %v", i, seq, refSwitches)
		}
	}
	// Traffic still flows afterwards.
	for k := 0; k < 5; k++ {
		c.Stacks[k%3].Call(core.Service, core.Broadcast{Data: []byte(fmt.Sprintf("after%d", k))})
	}
	waitDelivered(t, c, sinks, 5, nil)
	checkIdenticalSequences(t, sinks, nil)
}

// bindCounter counts each stack's binds of one protocol.
type bindCounter struct {
	protocol string
	mu       sync.Mutex
	binds    map[kernel.Addr]int
}

func (b *bindCounter) Trace(ev kernel.TraceEvent) {
	if ev.Kind != kernel.TraceBind || ev.Protocol != b.protocol {
		return
	}
	b.mu.Lock()
	b.binds[ev.Stack]++
	b.mu.Unlock()
}

func TestBindCounter(t *testing.T) {
	b := &bindCounter{protocol: "p", binds: map[kernel.Addr]int{}}
	for _, ev := range []kernel.TraceEvent{
		{Stack: 0, Kind: kernel.TraceBind, Protocol: "p"},
		{Stack: 0, Kind: kernel.TraceBind, Protocol: "p"},
		{Stack: 1, Kind: kernel.TraceBind, Protocol: "q"},
		{Stack: 1, Kind: kernel.TraceModuleAdd, Protocol: "p"},
	} {
		b.Trace(ev)
	}
	if b.binds[0] != 2 || b.binds[1] != 0 {
		t.Errorf("binds = %v, want stack 0: 2, stack 1: 0", b.binds)
	}
}

func TestPaperPropertiesOnTraces(t *testing.T) {
	// A switch under load, audited in full: Section 3's weak
	// stack-well-formedness and weak protocol-operationability of both
	// protocols, plus the switch applied at one position everywhere.
	binds := &bindCounter{protocol: abcast.ProtocolSeq, binds: map[kernel.Addr]int{}}
	c, sinks := buildDPU(t, 3, simnet.Config{Seed: 37},
		core.Config{InitialProtocol: abcast.ProtocolCT}, binds)
	for k := 0; k < 10; k++ {
		c.Stacks[k%3].Call(core.Service, core.Broadcast{Data: []byte(fmt.Sprintf("m%d", k))})
	}
	c.Stacks[0].Call(core.Service, core.ChangeProtocol{Protocol: abcast.ProtocolSeq})
	c.Eventually(timeout, "switch everywhere", func() bool {
		for _, s := range sinks {
			if s.switchCount() != 1 {
				return false
			}
		}
		return true
	})
	waitDelivered(t, c, sinks, 10, nil)
	checkIdenticalSequences(t, sinks, nil)
	rep := sinks[0].aud.Report()
	t.Logf("parked calls: %d, released: %d", rep.Parked, rep.Released)
	// Every stack must have bound the new protocol exactly once.
	binds.mu.Lock()
	defer binds.mu.Unlock()
	for a := kernel.Addr(0); a < 3; a++ {
		if binds.binds[a] != 1 {
			t.Errorf("stack %d bound %q %d times, want 1", a, abcast.ProtocolSeq, binds.binds[a])
		}
	}
}

func TestSwitchWithLossyNetwork(t *testing.T) {
	c, sinks := buildDPU(t, 3,
		simnet.Config{Seed: 38, BaseLatency: time.Millisecond},
		core.Config{InitialProtocol: abcast.ProtocolCT}, nil)
	c.Faults.SetLoss(0.1)
	const pre, post = 8, 8
	for k := 0; k < pre; k++ {
		c.Stacks[k%3].Call(core.Service, core.Broadcast{Data: []byte(fmt.Sprintf("pre%d", k))})
	}
	c.Stacks[1].Call(core.Service, core.ChangeProtocol{Protocol: abcast.ProtocolCT})
	for k := 0; k < post; k++ {
		c.Stacks[k%3].Call(core.Service, core.Broadcast{Data: []byte(fmt.Sprintf("post%d", k))})
	}
	waitDelivered(t, c, sinks, pre+post, nil)
	checkIdenticalSequences(t, sinks, nil)
}

func TestDependentServiceKeepsWorkingAcrossSwitch(t *testing.T) {
	// A module that *requires* the public abcast service (like the GM
	// module in Figure 4) must see uninterrupted service across the
	// replacement — the modularity claim of Section 4.
	c, sinks := buildDPU(t, 3, simnet.Config{Seed: 39},
		core.Config{InitialProtocol: abcast.ProtocolCT}, nil)
	// The dependent service: echoes every delivery it sees; here we just
	// assert sinks (which play that role) never miss a message while the
	// switch happens in the middle of a stream.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 40; k++ {
			c.Stacks[k%3].Call(core.Service, core.Broadcast{Data: []byte(fmt.Sprintf("m%d", k))})
			time.Sleep(time.Millisecond)
		}
	}()
	time.Sleep(15 * time.Millisecond)
	c.Stacks[2].Call(core.Service, core.ChangeProtocol{Protocol: abcast.ProtocolToken})
	wg.Wait()
	waitDelivered(t, c, sinks, 40, nil)
	checkIdenticalSequences(t, sinks, nil)
}
