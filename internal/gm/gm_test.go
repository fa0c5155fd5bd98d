package gm_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/abcast"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/gm"
	"repro/internal/kernel"
	"repro/internal/rbcast"
	"repro/internal/rp2p"
	"repro/internal/simnet"
	"repro/internal/stacktest"
	"repro/internal/udp"
	"repro/internal/vclock"
)

const timeout = 20 * time.Second

type viewLog struct {
	kernel.Base
	mu    sync.Mutex
	views []gm.View
}

func (l *viewLog) HandleIndication(_ kernel.ServiceID, ind kernel.Indication) {
	if v, ok := ind.(gm.NewView); ok {
		l.mu.Lock()
		l.views = append(l.views, v.View)
		l.mu.Unlock()
	}
}

func (l *viewLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.views)
}

func (l *viewLog) snapshot() []gm.View {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]gm.View(nil), l.views...)
}

func build(t *testing.T, n int) (*stacktest.Cluster, []*viewLog) {
	t.Helper()
	return buildOn(t, n, simnet.Config{})
}

func buildOn(t *testing.T, n int, netCfg simnet.Config) (*stacktest.Cluster, []*viewLog) {
	t.Helper()
	c := stacktest.New(t, n, netCfg, nil)
	c.Reg.MustRegister(udp.Factory(c.Tr))
	c.Reg.MustRegister(rp2p.Factory(rp2p.Config{RTO: 5 * time.Millisecond}))
	c.Reg.MustRegister(rbcast.Factory(rbcast.Config{}))
	c.Reg.MustRegister(fd.Factory(fd.Config{Interval: 5 * time.Millisecond, Timeout: 60 * time.Millisecond}))
	c.Reg.MustRegister(consensus.Factory())
	c.Reg.MustRegister(core.Factory(core.Config{InitialProtocol: abcast.ProtocolCT, Grace: 100 * time.Millisecond}))
	c.Reg.MustRegister(gm.Factory())
	c.CreateAll(gm.Protocol)
	logs := make([]*viewLog, n)
	for i := range logs {
		i := i
		c.OnSync(i, func() {
			logs[i] = &viewLog{Base: kernel.NewBase(c.Stacks[i], "view-log")}
			c.Stacks[i].AddModule(logs[i])
			c.Stacks[i].Subscribe(gm.Service, logs[i])
		})
	}
	return c, logs
}

func TestInitialViewContainsAllPeers(t *testing.T) {
	c, _ := build(t, 3)
	got := make(chan gm.View, 1)
	c.Stacks[0].Call(gm.Service, gm.ViewReq{Reply: func(v gm.View) { got <- v }})
	select {
	case v := <-got:
		if v.ID != 0 || len(v.Members) != 3 {
			t.Errorf("initial view %+v", v)
		}
		if !v.Contains(0) || !v.Contains(2) || v.Contains(7) {
			t.Errorf("Contains broken: %+v", v)
		}
	case <-time.After(timeout):
		t.Fatal("no view reply")
	}
}

func TestLeaveAndJoinProduceConsistentViews(t *testing.T) {
	// Views now drive the whole stack: an evicted member halts its
	// participation, so view agreement is checked on the members of each
	// view. A join then admits a fresh id — never the evicted one — and
	// commits consistently on the surviving members.
	c, logs := build(t, 3)
	c.Stacks[0].Call(gm.Service, gm.Leave{P: 1})
	c.Eventually(timeout, "view 1 everywhere", func() bool {
		for _, l := range logs {
			if l.count() < 1 {
				return false
			}
		}
		return true
	})
	joined := make(chan gm.Result, 1)
	c.Stacks[2].Call(gm.Service, gm.Join{Reply: func(r gm.Result) { joined <- r }})
	c.Eventually(timeout, "view 2 on the survivors", func() bool {
		return logs[0].count() >= 2 && logs[2].count() >= 2
	})
	for _, i := range []int{0, 2} {
		vs := logs[i].snapshot()
		if vs[0].ID != 1 || len(vs[0].Members) != 2 || vs[0].Contains(1) {
			t.Errorf("stack %d view[0] = %+v", i, vs[0])
		}
		if vs[1].ID != 2 || len(vs[1].Members) != 3 || vs[1].Contains(1) || !vs[1].Contains(3) {
			t.Errorf("stack %d view[1] = %+v", i, vs[1])
		}
	}
	if r := <-joined; r.Err != nil || r.Member != 3 || r.NextID != 4 {
		t.Errorf("join result %+v, want fresh member 3", r)
	}
	// The evicted stack observed its own eviction and nothing after.
	vs := logs[1].snapshot()
	if len(vs) < 1 || vs[0].ID != 1 || vs[0].Contains(1) {
		t.Errorf("evicted stack views = %+v", vs)
	}
}

// Two conflicting evictions issued at the same instant — stack 0 asks
// for Leave{2}, stack 1 for Leave{0} — are applied in one order on every
// stack (GM inherits ABcast's total order). Each eviction halts its
// target, so every stack observes a prefix of the survivor's view
// sequence. Which of the two is ordered first decides what becomes of the
// other; the two tests below force one winner each with link latencies,
// under virtual time, and concurrentLeaves is their common start.
func concurrentLeaves(t *testing.T, slow kernel.Addr, d time.Duration) (c *stacktest.Cluster, logs []*viewLog, vc *vclock.Virtual, from0, from1 chan gm.Result) {
	vc = vclock.NewVirtual()
	c, logs = buildOn(t, 3, simnet.Config{Clock: vc, BaseLatency: time.Millisecond})
	for p := kernel.Addr(0); p < 3; p++ {
		if p != slow {
			c.Net.SetLinkLatency(simnet.Addr(slow), simnet.Addr(p), d)
		}
	}
	from0, from1 = make(chan gm.Result, 1), make(chan gm.Result, 1)
	c.Stacks[0].Call(gm.Service, gm.Leave{P: 2, Reply: func(r gm.Result) { from0 <- r }})
	c.Stacks[1].Call(gm.Service, gm.Leave{P: 0, Reply: func(r gm.Result) { from1 <- r }})
	return c, logs, vc, from0, from1
}

// reply returns the Result a request was answered with; after RunFor
// everything that was going to happen has happened, so an empty channel
// is a request that was left unanswered.
func reply(t *testing.T, what string, ch chan gm.Result) gm.Result {
	t.Helper()
	select {
	case r := <-ch:
		return r
	default:
		t.Fatalf("%s was never answered", what)
		return gm.Result{}
	}
}

// assertPrefixes checks that every stack's view log is a prefix of the
// survivor's, and that the survivor's is want (member lists, in order).
func assertPrefixes(t *testing.T, logs []*viewLog, survivor int, want ...[]kernel.Addr) {
	t.Helper()
	ref := logs[survivor].snapshot()
	if len(ref) != len(want) {
		t.Fatalf("survivor %d saw views %+v, want members %v", survivor, ref, want)
	}
	for k, v := range ref {
		if v.ID != uint64(k+1) || fmt.Sprint(v.Members) != fmt.Sprint(want[k]) {
			t.Fatalf("survivor %d view[%d] = %+v, want id %d members %v", survivor, k, v, k+1, want[k])
		}
	}
	for i, l := range logs {
		vs := l.snapshot()
		if len(vs) > len(ref) {
			t.Fatalf("stack %d saw %d views, survivor saw %d", i, len(vs), len(ref))
		}
		for k := range vs {
			if fmt.Sprint(vs[k]) != fmt.Sprint(ref[k]) {
				t.Fatalf("stack %d view[%d] = %+v, survivor saw %+v", i, k, vs[k], ref[k])
			}
		}
	}
}

func TestConcurrentLeavesVictimsRequestOrderedFirst(t *testing.T) {
	// Stack 1 is 20 hops away: 0 and 2 order Leave{2} before they hear of
	// Leave{0}. Stack 1's request loses the epoch race, stack 1 — still a
	// member — proposes it again in the new epoch, and it commits: the
	// sole survivor sees both views.
	_, logs, vc, from0, from1 := concurrentLeaves(t, 1, 20*time.Millisecond)
	vc.RunFor(time.Second)
	if r := reply(t, "Leave{2} from stack 0", from0); r.Err != nil || r.View.ID != 1 {
		t.Fatalf("Leave{2} from stack 0: %+v", r)
	}
	if r := reply(t, "Leave{0} from stack 1", from1); r.Err != nil || r.View.ID != 2 {
		t.Fatalf("Leave{0} from stack 1: %+v", r)
	}
	assertPrefixes(t, logs, 1, []kernel.Addr{0, 1}, []kernel.Addr{1})
	if n := logs[0].count(); n != 2 {
		t.Errorf("stack 0 saw %d views, want both (the second is its own eviction)", n)
	}
	if n := logs[2].count(); n != 1 {
		t.Errorf("stack 2 saw %d views, want its own eviction only", n)
	}
}

func TestConcurrentLeavesEvictorsRequestOrderedFirst(t *testing.T) {
	// Stack 0 is 200 hops away: 1 and 2 suspect it, order Leave{0} in a
	// round of their own and install {1, 2}. Stack 0 learns of its
	// eviction with Leave{2} still unordered. The survivors never order
	// that request and nobody proposes it again, so stack 0's caller is
	// told so (this used to be silence: ROADMAP 2(c)). The group is
	// unharmed: the same request from a member commits.
	c, logs, vc, from0, from1 := concurrentLeaves(t, 0, 200*time.Millisecond)
	vc.RunFor(2 * time.Second)
	if r := reply(t, "Leave{0} from stack 1", from1); r.Err != nil || r.View.ID != 1 {
		t.Fatalf("Leave{0} from stack 1: %+v", r)
	}
	if r := reply(t, "Leave{2} from stack 0", from0); !errors.Is(r.Err, core.ErrEvicted) {
		t.Fatalf("Leave{2} from evicted stack 0: %+v, want core.ErrEvicted", r)
	}
	assertPrefixes(t, logs, 1, []kernel.Addr{1, 2})
	for i, l := range logs {
		if n := l.count(); n != 1 {
			t.Errorf("stack %d saw %d views, want 1", i, n)
		}
	}

	// Requests made after the eviction are answered the same way.
	late := make(chan gm.Result, 1)
	c.Stacks[0].Call(gm.Service, gm.Leave{P: 2, Reply: func(r gm.Result) { late <- r }})
	again := make(chan gm.Result, 1)
	c.Stacks[1].Call(gm.Service, gm.Leave{P: 2, Reply: func(r gm.Result) { again <- r }})
	vc.RunFor(time.Second)
	if r := reply(t, "Leave{2} from stack 0 after its eviction", late); !errors.Is(r.Err, core.ErrEvicted) {
		t.Fatalf("Leave{2} from stack 0 after its eviction: %+v, want core.ErrEvicted", r)
	}
	if r := reply(t, "Leave{2} from stack 1", again); r.Err != nil || r.View.ID != 2 {
		t.Fatalf("Leave{2} from stack 1: %+v", r)
	}
	assertPrefixes(t, logs, 1, []kernel.Addr{1, 2}, []kernel.Addr{1})
	if n := logs[0].count(); n != 1 {
		t.Errorf("evicted stack 0 saw %d views, want 1", n)
	}
}

func TestDuplicateOpsAreIdempotent(t *testing.T) {
	c, logs := build(t, 3)
	c.Stacks[0].Call(gm.Service, gm.Leave{P: 1})
	c.Stacks[0].Call(gm.Service, gm.Leave{P: 1}) // second leave: no new view
	c.Eventually(timeout, "first view", func() bool { return logs[0].count() >= 1 })
	time.Sleep(100 * time.Millisecond)
	for i, l := range logs {
		if l.count() != 1 {
			t.Errorf("stack %d got %d views, want 1 (duplicate op applied)", i, l.count())
		}
	}
}

func TestViewsSurviveProtocolSwitch(t *testing.T) {
	// The paper's modularity claim: GM depends on the abcast service and
	// must keep working, unaware, across the replacement — and the
	// replacement must keep working across view changes (both are epoch
	// bumps ordered through the same stream).
	c, logs := build(t, 3)
	c.Stacks[0].Call(gm.Service, gm.Leave{P: 2})
	c.Eventually(timeout, "pre-switch view", func() bool {
		for _, l := range logs {
			if l.count() < 1 {
				return false
			}
		}
		return true
	})
	c.Stacks[1].Call(core.Service, core.ChangeProtocol{Protocol: abcast.ProtocolSeq})
	c.Stacks[0].Call(gm.Service, gm.Join{})
	c.Eventually(timeout, "post-switch view on the survivors", func() bool {
		return logs[0].count() >= 2 && logs[1].count() >= 2
	})
	for _, i := range []int{0, 1} {
		vs := logs[i].snapshot()
		if vs[1].ID != 2 || !vs[1].Contains(3) {
			t.Errorf("stack %d post-switch view %+v", i, vs[1])
		}
	}
	// The membership op raced a protocol change; whatever order they
	// committed in, both survivors agree on the final protocol & epoch.
	status := func(i int) core.Status {
		got := make(chan core.Status, 1)
		c.Stacks[i].Call(core.Service, core.StatusReq{Reply: func(s core.Status) { got <- s }})
		return <-got
	}
	c.Eventually(timeout, "survivors converge", func() bool {
		a, b := status(0), status(1)
		return a.Sn == b.Sn && a.Protocol == b.Protocol
	})
}
