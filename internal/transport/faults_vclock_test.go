package transport

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/vclock"
)

// memFabric is a minimal synchronous in-memory fabric: a send invokes
// the destination's RecvFunc on the calling goroutine, with a batch of
// one. With the Faulty decorator's timers on a virtual clock, every
// delivery then happens either inside Send or Enqueue (undelayed) or
// inside Virtual.RunFor (delayed), so a single-goroutine test observes
// a total delivery order.
type memFabric struct{ eps map[Addr]RecvFunc }

func newMemFabric() *memFabric { return &memFabric{eps: make(map[Addr]RecvFunc)} }

func (f *memFabric) OpenBatch(a Addr, recv RecvFunc) (Endpoint, error) {
	f.eps[a] = recv
	return memEndpoint{f: f, a: a}, nil
}

func (f *memFabric) Close() {}

type memEndpoint struct {
	f *memFabric
	a Addr
}

func (e memEndpoint) Addr() Addr { return e.a }

func (e memEndpoint) Send(to Addr, data []byte) { e.Enqueue(to, data, nil) }

func (e memEndpoint) Enqueue(to Addr, head, body []byte) {
	if recv := e.f.eps[to]; recv != nil {
		recv([]Packet{{From: e.a, Data: append(append([]byte(nil), head...), body...)}})
	}
}

func (e memEndpoint) Flush() {}
func (e memEndpoint) Close() {}

// faultyVirtualDigest runs one seeded fault schedule under a virtual
// clock and returns the delivery transcript: payload and virtual
// arrival time of every datagram, in delivery order.
func faultyVirtualDigest(t *testing.T, seed int64) (string, FaultStats) {
	t.Helper()
	vc := vclock.NewVirtual()
	ft := Faulty(newMemFabric(), FaultConfig{
		Seed:     seed,
		LossRate: 0.25,
		DupRate:  0.2,
		Delay:    3 * time.Millisecond,
		Jitter:   5 * time.Millisecond,
		Clock:    vc,
	})
	var got []string
	if _, err := openEach(ft, 2, func(from Addr, data []byte) {
		got = append(got, fmt.Sprintf("%s@%v", data, vc.Elapsed()))
	}); err != nil {
		t.Fatal(err)
	}
	ep, err := openEach(ft, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		ep.Send(2, []byte(fmt.Sprintf("msg-%03d", i)))
	}
	// Release every held-back datagram: delay+jitter is bounded by 8ms.
	vc.RunFor(50 * time.Millisecond)
	ft.Close()
	return strings.Join(got, "\n"), ft.Stats()
}

// TestFaultyVirtualClockDeterminism pins the clocktime fix in the
// Faulty decorator: delay/jitter timers run on the injected clock, so a
// seeded fault schedule under vclock.Virtual replays the identical
// delivery transcript — same arrivals, same duplications, same virtual
// timestamps — run after run. With wall timers (the old behavior) the
// held-back datagrams would race the test goroutine and virtual time
// would never advance for them.
func TestFaultyVirtualClockDeterminism(t *testing.T) {
	d1, s1 := faultyVirtualDigest(t, 42)
	d2, s2 := faultyVirtualDigest(t, 42)
	if d1 != d2 {
		t.Fatalf("same seed, different delivery transcripts:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", d1, d2)
	}
	if s1 != s2 {
		t.Fatalf("same seed, different stats: %+v vs %+v", s1, s2)
	}
	// The schedule must actually exercise the fault machinery.
	if s1.Dropped == 0 || s1.Duplicated == 0 || s1.Delayed == 0 {
		t.Fatalf("degenerate fault schedule: %+v", s1)
	}
	// Delayed datagrams must arrive on virtual time (elapsed > 0). The
	// wall-timer bug delivered them while the virtual clock stood still.
	if !strings.Contains(d1, "@3.") && !strings.Contains(d1, "@4.") && !strings.Contains(d1, "@5.") {
		t.Fatalf("no delivery carries a virtual-time arrival stamp:\n%s", d1)
	}
	// A different seed must produce a different schedule.
	d3, _ := faultyVirtualDigest(t, 43)
	if d3 == d1 {
		t.Fatal("different seeds produced identical transcripts")
	}
}

// TestFaultyWallDelayIsHandedOff: on the wall clock a delayed datagram
// is sent by the decorator's sender goroutine, not by the clock's pacer,
// which fires every wall-clock timer in the process. A send that parks
// (here: the first one, until released) leaves other timers firing, and
// datagrams held back by one delay leave in the order they were sent.
func TestFaultyWallDelayIsHandedOff(t *testing.T) {
	const n = 100
	gate := make(chan struct{})
	got := make(chan string, n)
	ft := Faulty(newMemFabric(), FaultConfig{Delay: time.Millisecond})
	defer ft.Close()
	if _, err := openEach(ft, 2, func(_ Addr, data []byte) {
		if string(data) == "msg-000" {
			<-gate
		}
		got <- string(data)
	}); err != nil {
		t.Fatal(err)
	}
	ep, err := openEach(ft, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ep.Send(2, []byte(fmt.Sprintf("msg-%03d", i)))
	}
	fired := make(chan struct{})
	vclock.Wall.AfterFunc(2*time.Millisecond, func() { close(fired) })
	<-fired // with the first send parked
	close(gate)
	for i := 0; i < n; i++ {
		if want, d := fmt.Sprintf("msg-%03d", i), <-got; d != want {
			t.Fatalf("delivery %d is %s, want %s", i, d, want)
		}
	}
}

// TestFaultyCutActsAtSendTime: over the simulated LAN a one-way cut
// blocks what is sent after it, and a datagram already on the wire
// still arrives, as on a real link.
func TestFaultyCutActsAtSendTime(t *testing.T) {
	vc := vclock.NewVirtual()
	ft := Faulty(Sim(simnet.New(simnet.Config{BaseLatency: time.Millisecond, Clock: vc})), FaultConfig{Clock: vc})
	defer ft.Close()
	var got []string
	if _, err := openEach(ft, 1, func(_ Addr, data []byte) {
		got = append(got, fmt.Sprintf("%s@%v", data, vc.Elapsed()))
	}); err != nil {
		t.Fatal(err)
	}
	ep, err := openEach(ft, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ep.Send(1, []byte("before"))
	vc.RunFor(time.Millisecond / 2)
	ft.CutOneWay(0, 1)
	ep.Send(1, []byte("after"))
	vc.RunFor(10 * time.Millisecond)
	if want := "before@1ms"; strings.Join(got, " ") != want {
		t.Fatalf("delivered %v, want %s", got, want)
	}
	if st := ft.Stats(); st.Blocked != 1 {
		t.Fatalf("Blocked = %d, want 1", st.Blocked)
	}
}
