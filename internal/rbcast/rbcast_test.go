package rbcast_test

import (
	"fmt"
	"log"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/rbcast"
	"repro/internal/rp2p"
	"repro/internal/simnet"
	"repro/internal/stacktest"
	"repro/internal/transport"
	"repro/internal/udp"
)

const timeout = 10 * time.Second

type delivLog struct {
	mu  sync.Mutex
	got []rbcast.Deliver
}

func (l *delivLog) add(d rbcast.Deliver) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.got = append(l.got, d)
}

func (l *delivLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.got)
}

func (l *delivLog) snapshot() []rbcast.Deliver {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]rbcast.Deliver(nil), l.got...)
}

func build(t *testing.T, n int, netCfg simnet.Config) (*stacktest.Cluster, []*delivLog) {
	c := stacktest.New(t, n, netCfg, nil)
	return c, buildOver(c, c.Tr, rp2p.Config{RTO: 5 * time.Millisecond})
}

// buildOver assembles rbcast on every stack of c with the udp modules
// on tr, and a listener on channel "t" per stack.
func buildOver(c *stacktest.Cluster, tr transport.Transport, cfg rp2p.Config) []*delivLog {
	c.Reg.MustRegister(udp.Factory(tr))
	c.Reg.MustRegister(rp2p.Factory(cfg))
	c.Reg.MustRegister(rbcast.Factory(rbcast.Config{}))
	c.CreateAll(rbcast.Protocol)
	logs := make([]*delivLog, len(c.Stacks))
	for i := range logs {
		logs[i] = &delivLog{}
		c.Stacks[i].Call(rbcast.Service, rbcast.Listen{Channel: "t", Handler: logs[i].add})
	}
	return logs
}

func TestBroadcastReachesEveryoneIncludingSender(t *testing.T) {
	c, logs := build(t, 3, simnet.Config{})
	c.Stacks[0].Call(rbcast.Service, rbcast.Broadcast{Channel: "t", Data: []byte("hello")})
	c.Eventually(timeout, "delivery everywhere", func() bool {
		for _, l := range logs {
			if l.count() != 1 {
				return false
			}
		}
		return true
	})
	for i, l := range logs {
		d := l.snapshot()[0]
		if d.Origin != 0 || string(d.Data) != "hello" {
			t.Errorf("stack %d got %+v", i, d)
		}
	}
}

func TestNoDuplicatesDespiteRelays(t *testing.T) {
	c, logs := build(t, 5, simnet.Config{Seed: 3, BaseLatency: time.Millisecond, Jitter: time.Millisecond})
	const total = 30
	for i := 0; i < total; i++ {
		c.Stacks[i%5].Call(rbcast.Service, rbcast.Broadcast{Channel: "t", Data: []byte{byte(i)}})
	}
	c.Eventually(timeout, "all deliveries", func() bool {
		for _, l := range logs {
			if l.count() < total {
				return false
			}
		}
		return true
	})
	time.Sleep(50 * time.Millisecond)
	for i, l := range logs {
		if got := l.count(); got != total {
			t.Errorf("stack %d delivered %d, want exactly %d", i, got, total)
		}
		seen := map[string]bool{}
		for _, d := range l.snapshot() {
			key := fmt.Sprintf("%d-%v", d.Origin, d.Data)
			if seen[key] {
				t.Errorf("stack %d delivered %s twice", i, key)
			}
			seen[key] = true
		}
	}
}

func TestAgreementDespiteSenderCrashMidBroadcast(t *testing.T) {
	// The sender manages to reach only stack 1 before crashing; the
	// relay step must spread the message to stack 2 anyway.
	c, logs := build(t, 3, simnet.Config{BaseLatency: 2 * time.Millisecond})
	c.Cut(0, 2) // sender can only reach stack 1
	c.Stacks[0].Call(rbcast.Service, rbcast.Broadcast{Channel: "t", Data: []byte("m")})
	// Give the message time to reach stack 1, then crash the sender.
	c.Eventually(timeout, "reached stack 1", func() bool { return logs[1].count() == 1 })
	c.Stacks[0].Crash()
	c.Eventually(timeout, "relayed to stack 2", func() bool { return logs[2].count() == 1 })
	if d := logs[2].snapshot()[0]; d.Origin != 0 || string(d.Data) != "m" {
		t.Errorf("stack 2 got %+v", d)
	}
}

func TestLossyNetworkStillDeliversEverywhere(t *testing.T) {
	c, logs := build(t, 4, simnet.Config{Seed: 6, BaseLatency: time.Millisecond})
	c.Faults.SetLoss(0.25)
	const total = 20
	for i := 0; i < total; i++ {
		c.Stacks[i%4].Call(rbcast.Service, rbcast.Broadcast{Channel: "t", Data: []byte{byte(i)}})
	}
	c.Eventually(timeout, "all deliveries under loss", func() bool {
		for _, l := range logs {
			if l.count() != total {
				return false
			}
		}
		return true
	})
}

func TestChannelBufferingForLateListeners(t *testing.T) {
	c, _ := build(t, 2, simnet.Config{})
	c.Stacks[0].Call(rbcast.Service, rbcast.Broadcast{Channel: "late", Data: []byte("early-bird")})
	late := &delivLog{}
	time.Sleep(20 * time.Millisecond)
	c.Stacks[1].Call(rbcast.Service, rbcast.Listen{Channel: "late", Handler: late.add})
	c.Eventually(timeout, "buffered message flushed", func() bool { return late.count() == 1 })
	if d := late.snapshot()[0]; string(d.Data) != "early-bird" {
		t.Errorf("got %+v", d)
	}
}

func TestValidityLocalDeliveryIsImmediate(t *testing.T) {
	c, logs := build(t, 3, simnet.Config{BaseLatency: 50 * time.Millisecond})
	start := time.Now()
	c.Stacks[0].Call(rbcast.Service, rbcast.Broadcast{Channel: "t", Data: []byte("x")})
	c.Eventually(timeout, "self delivery", func() bool { return logs[0].count() == 1 })
	if el := time.Since(start); el > 40*time.Millisecond {
		t.Errorf("local delivery took %v; should not wait for the network", el)
	}
}

// TestBurstCoalescesIntoFewDatagrams checks the per-destination frame
// coalescing: a burst of broadcasts issued in one executor pass leaves
// the sender as a handful of RP2P datagrams, not one per message per
// peer.
func TestBurstCoalescesIntoFewDatagrams(t *testing.T) {
	c, logs := build(t, 3, simnet.Config{})
	const burst = 100
	// Issue the whole burst in one executor event, so it drains as one
	// batch and the flusher coalesces the outgoing records.
	c.OnSync(0, func() {
		for i := 0; i < burst; i++ {
			c.Stacks[0].CallSync(rbcast.Service, rbcast.Broadcast{Channel: "t", Data: []byte{byte(i)}})
		}
	})
	c.Eventually(timeout, "burst delivered everywhere", func() bool {
		for _, l := range logs {
			if l.count() != burst {
				return false
			}
		}
		return true
	})
	var sent uint64
	done := make(chan struct{})
	c.Stacks[0].Call(rp2p.Service, rp2p.StatsReq{Reply: func(s rp2p.Stats) {
		sent = s.Sent
		close(done)
	}})
	<-done
	// Without coalescing the burst costs burst*(n-1) = 200 rp2p sends.
	// With per-pass frames it is a few datagrams per peer (the 100 tiny
	// records fit one frame each).
	if sent >= burst {
		t.Fatalf("burst of %d broadcasts used %d rp2p sends; coalescing should use far fewer", burst, sent)
	}
	// FIFO within the frame: stack 0's own order must be the arrival
	// order everywhere.
	for i, l := range logs {
		snap := l.snapshot()
		for j, d := range snap {
			if int(d.Data[0]) != j {
				t.Fatalf("stack %d: record %d out of order (got %d)", i, j, d.Data[0])
			}
		}
	}
}

// TestBufferFullLogsOnceAndCounts overflows an unclaimed channel and
// checks the drop path: one log line per channel (not one per message)
// and every drop counted.
func TestBufferFullLogsOnceAndCounts(t *testing.T) {
	var buf strings.Builder
	var mu sync.Mutex
	logger := log.New(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	}), "", 0)
	reg := kernel.NewRegistry()
	net := simnet.New(simnet.Config{})
	defer net.Close()
	reg.MustRegister(udp.Factory(transport.Sim(net)))
	reg.MustRegister(rp2p.Factory(rp2p.Config{}))
	reg.MustRegister(rbcast.Factory(rbcast.Config{BufferLimit: 4}))
	st2 := kernel.NewStack(kernel.Config{Addr: 0, Peers: []kernel.Addr{0}, Registry: reg, Logger: logger})
	defer st2.Close()
	if err := st2.DoSync(func() {
		if _, err := st2.CreateProtocol(rbcast.Protocol); err != nil {
			t.Errorf("create: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	before := metrics.NewCounter("rbcast.buffer_drops").Value()
	const extra = 10
	for i := 0; i < 4+extra; i++ {
		st2.Call(rbcast.Service, rbcast.Broadcast{Channel: "unclaimed", Data: []byte{byte(i)}})
	}
	if err := st2.DoSync(func() {}); err != nil {
		t.Fatal(err)
	}
	if got := metrics.NewCounter("rbcast.buffer_drops").Value() - before; got != extra {
		t.Fatalf("drop counter advanced by %d, want %d", got, extra)
	}
	mu.Lock()
	logged := buf.String()
	mu.Unlock()
	if n := strings.Count(logged, "buffer full"); n != 1 {
		t.Fatalf("buffer-full logged %d times, want once per channel:\n%s", n, logged)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestFrameNeverGrowsPastCapWhenCoalescing: two records that together
// exceed the frame cap must leave as two datagrams — coalescing must
// never build a frame a real UDP socket cannot carry.
func TestFrameNeverGrowsPastCapWhenCoalescing(t *testing.T) {
	c, logs := build(t, 2, simnet.Config{})
	big := make([]byte, 30<<10) // two of these exceed the 48 KiB cap
	c.OnSync(0, func() {
		c.Stacks[0].CallSync(rbcast.Service, rbcast.Broadcast{Channel: "t", Data: big})
		c.Stacks[0].CallSync(rbcast.Service, rbcast.Broadcast{Channel: "t", Data: big})
	})
	c.Eventually(timeout, "both records delivered", func() bool {
		return logs[1].count() == 2
	})
	var sent uint64
	done := make(chan struct{})
	c.Stacks[0].Call(rp2p.Service, rp2p.StatsReq{Reply: func(s rp2p.Stats) {
		sent = s.Sent
		close(done)
	}})
	<-done
	// One peer, two records that cannot share a frame: exactly 2 sends.
	if sent != 2 {
		t.Fatalf("rp2p sends = %d, want 2 (one frame per over-cap record)", sent)
	}
}
