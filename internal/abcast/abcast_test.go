package abcast_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/abcast"
	"repro/internal/consensus"
	"repro/internal/fd"
	"repro/internal/kernel"
	"repro/internal/rbcast"
	"repro/internal/rp2p"
	"repro/internal/simnet"
	"repro/internal/stacktest"
	"repro/internal/udp"
)

const timeout = 20 * time.Second

// delivery is a delivered message as seen by one stack.
type delivery struct {
	origin kernel.Addr
	data   string
}

// sink subscribes to ServiceImpl and logs deliveries.
type sink struct {
	kernel.Base
	mu  sync.Mutex
	seq []delivery
}

func newSink(st *kernel.Stack) *sink { return &sink{Base: kernel.NewBase(st, "sink")} }

func (s *sink) HandleIndication(_ kernel.ServiceID, ind kernel.Indication) {
	if d, ok := ind.(abcast.Deliver); ok {
		s.mu.Lock()
		s.seq = append(s.seq, delivery{origin: d.Origin, data: string(d.Data)})
		s.mu.Unlock()
	}
}

func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.seq)
}

func (s *sink) snapshot() []delivery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]delivery(nil), s.seq...)
}

// substrate assembles n stacks with everything below atomic broadcast
// registered, and no atomic-broadcast module yet.
func substrate(t *testing.T, n int, netCfg simnet.Config, rpCfg rp2p.Config) *stacktest.Cluster {
	t.Helper()
	c := stacktest.New(t, n, netCfg, nil)
	c.Reg.MustRegister(udp.Factory(c.Tr))
	c.Reg.MustRegister(rp2p.Factory(rpCfg))
	c.Reg.MustRegister(rbcast.Factory(rbcast.Config{}))
	c.Reg.MustRegister(fd.Factory(fd.Config{Interval: 5 * time.Millisecond, Timeout: 60 * time.Millisecond}))
	c.Reg.MustRegister(consensus.Factory())
	return c
}

// attach creates the implementation's module for an epoch on stack i,
// binds it to svc and starts it, the way the replacement layer does when
// the stack reaches a switch; the returned sink logs what it delivers.
func attach(t *testing.T, c *stacktest.Cluster, i int, im abcast.Impl, epoch uint64, svc kernel.ServiceID) *sink {
	t.Helper()
	var s *sink
	c.OnSync(i, func() {
		st := c.Stacks[i]
		for _, req := range im.Requires {
			if err := st.EnsureService(req); err != nil {
				t.Errorf("stack %d: ensure %q: %v", i, req, err)
			}
		}
		mod := im.New(st, epoch)
		st.AddModule(mod)
		if err := st.Bind(svc, mod); err != nil {
			t.Errorf("stack %d: bind: %v", i, err)
		}
		s = newSink(st)
		st.AddModule(s)
		st.Subscribe(abcast.ServiceImpl, s)
		mod.Start()
	})
	return s
}

// build assembles n stacks with the full substrate and the named
// implementation bound to ServiceImpl at epoch 0.
func build(t *testing.T, n int, netCfg simnet.Config, implName string) (*stacktest.Cluster, []*sink) {
	t.Helper()
	c := substrate(t, n, netCfg, rp2p.Config{RTO: 5 * time.Millisecond})
	im, ok := abcast.StandardRegistry().Lookup(implName)
	if !ok {
		t.Fatalf("unknown implementation %q", implName)
	}
	sinks := make([]*sink, n)
	for i := range sinks {
		sinks[i] = attach(t, c, i, im, 0, abcast.ServiceImpl)
	}
	return c, sinks
}

var allImpls = []string{abcast.ProtocolCT, abcast.ProtocolSeq, abcast.ProtocolToken}

func waitAll(t *testing.T, c *stacktest.Cluster, sinks []*sink, want int, skip map[int]bool) {
	t.Helper()
	c.Eventually(timeout, fmt.Sprintf("%d deliveries everywhere", want), func() bool {
		for i, s := range sinks {
			if skip[i] {
				continue
			}
			if s.count() < want {
				return false
			}
		}
		return true
	})
}

// checkTotalOrder verifies pairwise order consistency: the delivery
// sequences of any two stacks must not order the same two messages
// differently (uniform total order, §5.1).
func checkTotalOrder(t *testing.T, sinks []*sink, skip map[int]bool) {
	t.Helper()
	var ref []delivery
	refIdx := -1
	for i, s := range sinks {
		if skip[i] {
			continue
		}
		seq := s.snapshot()
		if ref == nil {
			ref, refIdx = seq, i
			continue
		}
		pos := make(map[delivery]int, len(ref))
		for k, d := range ref {
			pos[d] = k
		}
		last := -1
		for k, d := range seq {
			p, ok := pos[d]
			if !ok {
				continue // ref may not have it yet; order among common prefix matters
			}
			if p < last {
				t.Fatalf("total order violated between stacks %d and %d at position %d: %v", refIdx, i, k, d)
			}
			last = p
		}
	}
}

func checkNoDuplicates(t *testing.T, sinks []*sink, skip map[int]bool) {
	t.Helper()
	for i, s := range sinks {
		if skip[i] {
			continue
		}
		seen := make(map[delivery]bool)
		for _, d := range s.snapshot() {
			if seen[d] {
				t.Fatalf("stack %d delivered %v twice (uniform integrity violated)", i, d)
			}
			seen[d] = true
		}
	}
}

func TestDeliveryToAllIncludingSender(t *testing.T) {
	for _, impl := range allImpls {
		t.Run(impl, func(t *testing.T) {
			c, sinks := build(t, 3, simnet.Config{}, impl)
			c.Stacks[1].Call(abcast.ServiceImpl, abcast.Broadcast{Data: []byte("hello")})
			waitAll(t, c, sinks, 1, nil)
			for i, s := range sinks {
				d := s.snapshot()[0]
				if d.origin != 1 || d.data != "hello" {
					t.Errorf("stack %d delivered %+v", i, d)
				}
			}
		})
	}
}

func TestTotalOrderWithConcurrentSenders(t *testing.T) {
	for _, impl := range allImpls {
		t.Run(impl, func(t *testing.T) {
			c, sinks := build(t, 3,
				simnet.Config{Seed: 21, BaseLatency: 500 * time.Microsecond, Jitter: time.Millisecond}, impl)
			const per = 15
			for k := 0; k < per; k++ {
				for i := 0; i < 3; i++ {
					c.Stacks[i].Call(abcast.ServiceImpl,
						abcast.Broadcast{Data: []byte(fmt.Sprintf("s%d-m%d", i, k))})
				}
			}
			waitAll(t, c, sinks, per*3, nil)
			checkTotalOrder(t, sinks, nil)
			checkNoDuplicates(t, sinks, nil)
			// With everything delivered, the sequences must be equal.
			ref := sinks[0].snapshot()
			for i := 1; i < 3; i++ {
				got := sinks[i].snapshot()
				if len(got) != len(ref) {
					t.Fatalf("stack %d delivered %d, stack 0 delivered %d", i, len(got), len(ref))
				}
				for k := range ref {
					if got[k] != ref[k] {
						t.Fatalf("stack %d position %d: %v != %v", i, k, got[k], ref[k])
					}
				}
			}
		})
	}
}

func TestTotalOrderUnderLoss(t *testing.T) {
	for _, impl := range allImpls {
		t.Run(impl, func(t *testing.T) {
			c, sinks := build(t, 3,
				simnet.Config{Seed: 22, BaseLatency: time.Millisecond}, impl)
			c.Faults.SetLoss(0.1)
			const per = 10
			for k := 0; k < per; k++ {
				for i := 0; i < 3; i++ {
					c.Stacks[i].Call(abcast.ServiceImpl,
						abcast.Broadcast{Data: []byte(fmt.Sprintf("s%d-m%d", i, k))})
				}
			}
			waitAll(t, c, sinks, per*3, nil)
			checkTotalOrder(t, sinks, nil)
			checkNoDuplicates(t, sinks, nil)
		})
	}
}

func TestCTUniformAgreementWithMinorityCrash(t *testing.T) {
	c, sinks := build(t, 5, simnet.Config{Seed: 23, BaseLatency: time.Millisecond}, abcast.ProtocolCT)
	// Crash stacks 3 and 4 after a short warm-up of traffic.
	for k := 0; k < 5; k++ {
		c.Stacks[0].Call(abcast.ServiceImpl, abcast.Broadcast{Data: []byte(fmt.Sprintf("pre-%d", k))})
	}
	waitAll(t, c, sinks, 5, nil)
	c.Stacks[3].Crash()
	c.Stacks[4].Crash()
	for k := 0; k < 5; k++ {
		c.Stacks[1].Call(abcast.ServiceImpl, abcast.Broadcast{Data: []byte(fmt.Sprintf("post-%d", k))})
	}
	skip := map[int]bool{3: true, 4: true}
	waitAll(t, c, sinks, 10, skip)
	checkTotalOrder(t, sinks, skip)
	checkNoDuplicates(t, sinks, skip)
}

func TestCTSenderCrashAfterBroadcast(t *testing.T) {
	// Uniform agreement: a message the crashed sender managed to get out
	// must be delivered by all survivors or none — and since one
	// survivor delivers it here, all must.
	c, sinks := build(t, 3, simnet.Config{Seed: 24, BaseLatency: time.Millisecond}, abcast.ProtocolCT)
	c.Stacks[0].Call(abcast.ServiceImpl, abcast.Broadcast{Data: []byte("last-words")})
	c.Eventually(timeout, "sender self-processing", func() bool { return sinks[0].count() >= 0 })
	time.Sleep(10 * time.Millisecond) // let dissemination start
	c.Stacks[0].Crash()
	skip := map[int]bool{0: true}
	waitAll(t, c, sinks, 1, skip)
	for i := 1; i < 3; i++ {
		if d := sinks[i].snapshot()[0]; d.data != "last-words" {
			t.Errorf("stack %d delivered %+v", i, d)
		}
	}
}

func TestSeqNonSequencerSender(t *testing.T) {
	c, sinks := build(t, 3, simnet.Config{}, abcast.ProtocolSeq)
	// Stack 2 (not the sequencer, which is stack 0) broadcasts.
	c.Stacks[2].Call(abcast.ServiceImpl, abcast.Broadcast{Data: []byte("via-sequencer")})
	waitAll(t, c, sinks, 1, nil)
	for i, s := range sinks {
		if d := s.snapshot()[0]; d.origin != 2 {
			t.Errorf("stack %d: origin %d", i, d.origin)
		}
	}
}

func TestTokenIdleCirculationDoesNotDeliver(t *testing.T) {
	c, sinks := build(t, 3, simnet.Config{}, abcast.ProtocolToken)
	// Let the token do a few idle laps.
	time.Sleep(50 * time.Millisecond)
	for i, s := range sinks {
		if s.count() != 0 {
			t.Errorf("stack %d delivered %d messages with no broadcasts", i, s.count())
		}
	}
	c.Stacks[1].Call(abcast.ServiceImpl, abcast.Broadcast{Data: []byte("with-token")})
	waitAll(t, c, sinks, 1, nil)
}

func TestTokenFairnessAllSendersProgress(t *testing.T) {
	c, sinks := build(t, 4, simnet.Config{Seed: 25}, abcast.ProtocolToken)
	const per = 5
	for k := 0; k < per; k++ {
		for i := 0; i < 4; i++ {
			c.Stacks[i].Call(abcast.ServiceImpl,
				abcast.Broadcast{Data: []byte(fmt.Sprintf("s%d-m%d", i, k))})
		}
	}
	waitAll(t, c, sinks, per*4, nil)
	checkTotalOrder(t, sinks, nil)
	// Every origin must appear per times at each stack.
	for i, s := range sinks {
		byOrigin := map[kernel.Addr]int{}
		for _, d := range s.snapshot() {
			byOrigin[d.origin]++
		}
		for o := kernel.Addr(0); o < 4; o++ {
			if byOrigin[o] != per {
				t.Errorf("stack %d: origin %d delivered %d times, want %d", i, o, byOrigin[o], per)
			}
		}
	}
}

func TestLargePayloadsSurvive(t *testing.T) {
	for _, impl := range allImpls {
		t.Run(impl, func(t *testing.T) {
			c, sinks := build(t, 3, simnet.Config{}, impl)
			big := make([]byte, 64*1024)
			for i := range big {
				big[i] = byte(i * 31)
			}
			c.Stacks[0].Call(abcast.ServiceImpl, abcast.Broadcast{Data: big})
			waitAll(t, c, sinks, 1, nil)
			for i, s := range sinks {
				if got := s.snapshot()[0].data; got != string(big) {
					t.Errorf("stack %d corrupted a large payload (len %d)", i, len(got))
				}
			}
		})
	}
}

func TestRegistryContents(t *testing.T) {
	reg := abcast.StandardRegistry()
	names := reg.Names()
	want := []string{abcast.ProtocolCT, abcast.ProtocolSeq, abcast.ProtocolToken}
	if len(names) != 3 {
		t.Fatalf("Names = %v", names)
	}
	for _, w := range want {
		if _, ok := reg.Lookup(w); !ok {
			t.Errorf("missing %q", w)
		}
	}
	if _, ok := reg.Lookup("abcast/nope"); ok {
		t.Error("Lookup(unknown) succeeded")
	}
	if err := reg.Register(abcast.Impl{}); err == nil {
		t.Error("invalid descriptor accepted")
	}
	if err := reg.Register(abcast.CTImpl()); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestTwoEpochsAreIsolated(t *testing.T) {
	// Two CT instances at different epochs on the same stacks must not
	// see each other's messages — the property the DPU layer depends on.
	c := stacktest.New(t, 3, simnet.Config{}, nil)
	c.Reg.MustRegister(udp.Factory(c.Tr))
	c.Reg.MustRegister(rp2p.Factory(rp2p.Config{RTO: 5 * time.Millisecond}))
	c.Reg.MustRegister(rbcast.Factory(rbcast.Config{}))
	c.Reg.MustRegister(fd.Factory(fd.Config{Interval: 5 * time.Millisecond, Timeout: 60 * time.Millisecond}))
	c.Reg.MustRegister(consensus.Factory())
	im := abcast.CTImpl()
	const svcA, svcB = kernel.ServiceID("epochA"), kernel.ServiceID("epochB")
	sinksA := make([]*sink, 3)
	sinksB := make([]*sink, 3)
	for i := 0; i < 3; i++ {
		i := i
		c.OnSync(i, func() {
			st := c.Stacks[i]
			for _, svc := range im.Requires {
				st.EnsureService(svc)
			}
			a := im.New(st, 1)
			b := im.New(st, 2)
			st.AddModule(a)
			st.AddModule(b)
			st.Bind(svcA, a)
			st.Bind(svcB, b)
			sinksA[i] = newSink(st)
			sinksB[i] = newSink(st)
			st.AddModule(sinksA[i])
			st.AddModule(sinksB[i])
			st.Subscribe(abcast.ServiceImpl, sinksA[i]) // both indicate on ServiceImpl
			a.Start()
			b.Start()
		})
	}
	c.Stacks[0].Call(svcA, abcast.Broadcast{Data: []byte("epoch-1-only")})
	c.Eventually(timeout, "epoch 1 delivery", func() bool {
		for _, s := range sinksA {
			if s.count() != 1 {
				return false
			}
		}
		return true
	})
	time.Sleep(20 * time.Millisecond)
	for i, s := range sinksA {
		if s.count() != 1 {
			t.Errorf("stack %d: %d deliveries, want 1 (epoch leakage)", i, s.count())
		}
	}
}
