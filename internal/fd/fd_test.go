package fd_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/kernel"
	"repro/internal/simnet"
	"repro/internal/stacktest"
	"repro/internal/udp"
)

const timeout = 10 * time.Second

// fdLog records Suspect/Restore indications.
type fdLog struct {
	kernel.Base
	mu       sync.Mutex
	suspects map[kernel.Addr]bool
	restores int
}

func newFDLog(st *kernel.Stack) *fdLog {
	return &fdLog{Base: kernel.NewBase(st, "fdlog"), suspects: make(map[kernel.Addr]bool)}
}

func (l *fdLog) HandleIndication(_ kernel.ServiceID, ind kernel.Indication) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch v := ind.(type) {
	case fd.Suspect:
		l.suspects[v.P] = true
	case fd.Restore:
		l.suspects[v.P] = false
		l.restores++
	}
}

func (l *fdLog) suspected(p kernel.Addr) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.suspects[p]
}

func (l *fdLog) restoreCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.restores
}

func build(t *testing.T, n int, netCfg simnet.Config, cfg fd.Config) (*stacktest.Cluster, []*fdLog) {
	c := stacktest.New(t, n, netCfg, nil)
	c.Reg.MustRegister(udp.Factory(c.Tr))
	c.Reg.MustRegister(fd.Factory(cfg))
	c.CreateAll(fd.Protocol)
	logs := make([]*fdLog, n)
	for i := range logs {
		i := i
		c.OnSync(i, func() {
			logs[i] = newFDLog(c.Stacks[i])
			c.Stacks[i].AddModule(logs[i])
			c.Stacks[i].Subscribe(fd.Service, logs[i])
		})
	}
	return c, logs
}

func TestNoSuspicionsInStableGroup(t *testing.T) {
	_, logs := build(t, 3, simnet.Config{},
		fd.Config{Interval: 5 * time.Millisecond, Timeout: 100 * time.Millisecond})
	time.Sleep(300 * time.Millisecond)
	for i, l := range logs {
		for p := kernel.Addr(0); p < 3; p++ {
			if l.suspected(p) {
				t.Errorf("stack %d suspects %d in a stable group", i, p)
			}
		}
	}
}

func TestCrashedPeerEventuallySuspected(t *testing.T) {
	c, logs := build(t, 3, simnet.Config{},
		fd.Config{Interval: 5 * time.Millisecond, Timeout: 40 * time.Millisecond})
	c.Isolate(2) // peer 2 goes silent
	c.Eventually(timeout, "suspicion of 2", func() bool {
		return logs[0].suspected(2) && logs[1].suspected(2)
	})
	if logs[0].suspected(1) || logs[1].suspected(0) {
		t.Error("live peers suspected")
	}
}

func TestRecoveredPeerRestored(t *testing.T) {
	c, logs := build(t, 2, simnet.Config{},
		fd.Config{Interval: 5 * time.Millisecond, Timeout: 40 * time.Millisecond})
	c.Isolate(1)
	c.Eventually(timeout, "suspicion", func() bool { return logs[0].suspected(1) })
	c.Rejoin(1)
	c.Eventually(timeout, "restore", func() bool { return !logs[0].suspected(1) })
	if logs[0].restoreCount() == 0 {
		t.Error("no Restore indication")
	}
}

func TestPartitionedPeerSuspectedThenRestoredOnHeal(t *testing.T) {
	c, logs := build(t, 3, simnet.Config{},
		fd.Config{Interval: 5 * time.Millisecond, Timeout: 40 * time.Millisecond})
	c.Cut(0, 2)
	c.Eventually(timeout, "one-sided suspicion", func() bool { return logs[0].suspected(2) })
	// 1 still hears 2: no suspicion there.
	if logs[1].suspected(2) {
		t.Error("stack 1 suspects 2 despite intact link")
	}
	c.Heal(0, 2)
	c.Eventually(timeout, "restore after heal", func() bool { return !logs[0].suspected(2) })
}

func TestAdaptiveTimeoutReducesFalseSuspicions(t *testing.T) {
	// A timeout shorter than the network latency forces false suspicions;
	// adaptation must grow the timeout until suspicions stop (the ◇S
	// convergence property).
	c, logs := build(t, 2,
		simnet.Config{BaseLatency: 30 * time.Millisecond},
		fd.Config{Interval: 5 * time.Millisecond, Timeout: 20 * time.Millisecond,
			AdaptStep: 30 * time.Millisecond, MaxTimeout: time.Second})
	c.Eventually(timeout, "initial false suspicion", func() bool { return logs[0].restoreCount() >= 1 })
	// After enough adaptation the suspicions must cease: wait for a
	// stretch with no state change.
	c.Eventually(timeout, "suspicions cease", func() bool {
		before := logs[0].restoreCount()
		time.Sleep(200 * time.Millisecond)
		return logs[0].restoreCount() == before && !logs[0].suspected(1)
	})
}

func TestSuspectsQuery(t *testing.T) {
	c, logs := build(t, 3, simnet.Config{},
		fd.Config{Interval: 5 * time.Millisecond, Timeout: 40 * time.Millisecond})
	c.Isolate(1)
	c.Eventually(timeout, "suspicion", func() bool { return logs[0].suspected(1) })
	got := make(chan []kernel.Addr, 1)
	c.Stacks[0].Call(fd.Service, fd.SuspectsReq{Reply: func(s []kernel.Addr) { got <- s }})
	select {
	case s := <-got:
		if len(s) != 1 || s[0] != 1 {
			t.Errorf("Suspects = %v, want [1]", s)
		}
	case <-time.After(timeout):
		t.Fatal("no reply")
	}
}

func TestMonitorSetFollowsView(t *testing.T) {
	// The monitor set is view-driven: a member removed by SetPeers is
	// forgotten (no Suspect for eviction), and a freshly admitted member
	// is monitored from "now" with the base timeout.
	c, logs := build(t, 3, simnet.Config{},
		fd.Config{Interval: 5 * time.Millisecond, Timeout: 40 * time.Millisecond})
	// Remove 2 from stack 0's view; 2 keeps running, but even if it went
	// silent, stack 0 must not suspect a non-member.
	c.OnSync(0, func() { c.Stacks[0].SetPeers([]kernel.Addr{0, 1}, nil) })
	c.Isolate(2)
	c.Eventually(timeout, "stack 1 suspects 2", func() bool { return logs[1].suspected(2) })
	if logs[0].suspected(2) {
		t.Error("stack 0 suspects evicted member 2")
	}
	// Re-admit 2 (still isolated): now stack 0 must suspect it again.
	c.OnSync(0, func() { c.Stacks[0].SetPeers([]kernel.Addr{0, 1, 2}, nil) })
	c.Eventually(timeout, "stack 0 suspects re-admitted 2", func() bool { return logs[0].suspected(2) })
}

func TestSuspectsReqAfterViewChange(t *testing.T) {
	c, logs := build(t, 2, simnet.Config{},
		fd.Config{Interval: 5 * time.Millisecond, Timeout: 40 * time.Millisecond})
	c.Isolate(1)
	c.Eventually(timeout, "suspicion", func() bool { return logs[0].suspected(1) })
	c.OnSync(0, func() { c.Stacks[0].SetPeers([]kernel.Addr{0}, nil) })
	got := make(chan []kernel.Addr, 1)
	c.Stacks[0].Call(fd.Service, fd.SuspectsReq{Reply: func(s []kernel.Addr) { got <- s }})
	select {
	case s := <-got:
		if len(s) != 0 {
			t.Errorf("suspects after eviction = %v, want none", s)
		}
	case <-time.After(timeout):
		t.Fatal("no SuspectsReq reply")
	}
}
