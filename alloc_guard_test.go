// Allocation budgets for the hot paths the perf work pins down. These
// are ordinary tests (not benchmarks) so CI fails loudly when a change
// re-introduces per-event allocations the batch-drain executor and the
// pooled codec removed.
package repro_test

import (
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/abcast"
	"repro/internal/consensus"
	"repro/internal/fd"
	"repro/internal/kernel"
	"repro/internal/rbcast"
	"repro/internal/rp2p"
	"repro/internal/transport"
	"repro/internal/transport/transporttest"
	"repro/internal/udp"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// TestKernelDispatchAllocBudget asserts the typed Call fast-path stays
// closure-free: enqueueing and dispatching one pre-boxed request must
// cost at most ~1 allocation amortized (queue growth), where the old
// closure-per-event loop paid one closure plus queue growth.
func TestKernelDispatchAllocBudget(t *testing.T) {
	st := kernel.NewStack(kernel.Config{Addr: 0, Peers: []kernel.Addr{0}})
	defer st.Close()
	var handled atomic.Int64
	if err := st.DoSync(func() {
		m := &countingModule{Base: kernel.NewBase(st, "budget"), count: &handled}
		st.AddModule(m)
		st.Bind("svc", m)
	}); err != nil {
		t.Fatal(err)
	}
	var req kernel.Request = struct{}{} // pre-boxed: measures the kernel, not the caller
	avg := testing.AllocsPerRun(20000, func() {
		st.Call("svc", req)
	})
	st.DoSync(func() {})
	if avg > 1.0 {
		t.Errorf("kernel Call fast-path allocates %.2f allocs/op, budget 1.0", avg)
	}
	if handled.Load() == 0 {
		t.Fatal("no requests dispatched")
	}
}

// TestBatchEnqueueFlushAllocBudget asserts the batched send path costs
// the same per Flush however many payloads it carries: Enqueue copies a
// payload's head and body into the datagram its peer's flush sends,
// whose buffer and queue slot the endpoint reuses, and Flush builds the
// sendmmsg headers into arrays wired up once at open. 64 small payloads to one peer are
// one datagram and one syscall. The receiving end is a bare socket
// nobody reads, so that only the sender's allocations are counted.
func TestBatchEnqueueFlushAllocBudget(t *testing.T) {
	if !transport.BatchSyscallsAvailable() {
		t.Skip("no batched syscall backend on this platform")
	}
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	book := map[transport.Addr]string{0: transporttest.ReserveAddrs(t, 1)[0], 1: sink.LocalAddr().String()}
	tr, err := transport.NewUDP(transport.UDPConfig{Book: book})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ep, err := tr.OpenBatch(0, func([]transport.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 128)
	flush := func(payloads int) {
		for i := 0; i < payloads; i++ {
			ep.Enqueue(1, payload[:16], payload[16:])
		}
		ep.Flush()
	}
	flush(64) // warm up: the queue slot and its buffer exist from here on
	before := tr.Stats()
	flush(64)
	if st := tr.Stats(); st.Sent != before.Sent+1 || st.SendCalls != before.SendCalls+1 || st.SendErrs != before.SendErrs {
		t.Fatalf("64 payloads to one peer: %d datagrams in %d syscalls, want 1 in 1", st.Sent-before.Sent, st.SendCalls-before.SendCalls)
	}
	few := testing.AllocsPerRun(2000, func() { flush(8) })
	many := testing.AllocsPerRun(2000, func() { flush(64) })
	t.Logf("allocations per flush: %.2f at 8 payloads, %.2f at 64", few, many)
	if many > few+0.5 || many > 3 {
		t.Errorf("a flush of 64 payloads allocates %.2f times, of 8 payloads %.2f: budget 3, and no growth with the payload count", many, few)
	}
}

// TestTimerRearmAllocBudget asserts a kernel timer is re-armed in place:
// once it exists, arming and stopping it allocates nothing, on the wall
// clock's process heap and on a virtual clock. (rp2p re-arms one per
// peer on every ack that moves the window; its own guard is
// rp2p.TestAckRearmAllocatesNothing.)
func TestTimerRearmAllocBudget(t *testing.T) {
	for name, clock := range map[string]vclock.Clock{"wall": vclock.Wall, "virtual": vclock.NewVirtual()} {
		t.Run(name, func(t *testing.T) {
			st := kernel.NewStack(kernel.Config{Addr: 0, Peers: []kernel.Addr{0}, Clock: clock})
			defer st.Close()
			tm := st.NewTimer(func() {})
			avg := testing.AllocsPerRun(10000, func() {
				tm.Reset(time.Hour)
				tm.Stop()
			})
			if avg != 0 {
				t.Errorf("re-arm + stop allocates %.2f times, want 0", avg)
			}
		})
	}
}

// TestPooledWriterAllocBudget asserts the pooled codec writer is
// allocation-free in steady state.
func TestPooledWriterAllocBudget(t *testing.T) {
	payload := make([]byte, 256)
	avg := testing.AllocsPerRun(10000, func() {
		w := wire.GetWriter(len(payload) + 32)
		w.Byte(1).Uvarint(7).String("ch").Raw(payload)
		w.Free()
	})
	// sync.Pool gives no hard guarantee (GC may empty it), so allow a
	// small residue rather than asserting exactly zero.
	if avg > 0.5 {
		t.Errorf("pooled writer allocates %.2f allocs/op in steady state, budget 0.5", avg)
	}
}

// TestLargeBroadcastByteBudget bounds what the host allocates to move
// one 128-KiB abcast/ct broadcast through three stacks over TCP
// loopback, in bytes. The payload crosses two links, once from its
// origin to each peer, so two reassembly buffers — a quarter of a
// megabyte — are what the receive side has to allocate; the send side
// refers to the broadcaster's buffer all the way to writev, and
// consensus orders ids, not payloads. When every layer copied into a
// buffer of its own and rbcast relayed every payload this read
// 3.0–3.2 MB; with the relays and no copies it read 0.50, and it reads
// 0.28 now. Bytes, not
// time: the budget leaves room for a reassembly buffer that has to grow
// when a header gains a byte, and for about three further copies of the
// payload anywhere in the three stacks.
func TestLargeBroadcastByteBudget(t *testing.T) {
	const (
		n        = 3
		messages = 200
		size     = 128 << 10
		budget   = 0.75 * (1 << 20) // bytes allocated per message, process-wide
		inFlight = 4                // stays far below the TCP queue limit, so nothing is dropped and resent
	)
	book := make(map[transport.Addr]string, n)
	for i, a := range transporttest.ReserveStreamAddrs(t, n) {
		book[transport.Addr(i)] = a
	}
	tr, err := transport.NewTCP(transport.TCPConfig{Book: book})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	reg := kernel.NewRegistry()
	reg.MustRegister(udp.Factory(tr))
	reg.MustRegister(rp2p.Factory(rp2p.Config{}))
	reg.MustRegister(rbcast.Factory(rbcast.Config{}))
	reg.MustRegister(fd.Factory(fd.Config{}))
	reg.MustRegister(consensus.Factory())
	peers := make([]kernel.Addr, n)
	for i := range peers {
		peers[i] = kernel.Addr(i)
	}
	delivered := make(chan struct{}, n*messages)
	stacks := make([]*kernel.Stack, n)
	for i := range stacks {
		st := kernel.NewStack(kernel.Config{Addr: kernel.Addr(i), Peers: peers, Registry: reg})
		defer st.Close()
		stacks[i] = st
		if err := st.DoSync(func() {
			im := abcast.CTImpl()
			for _, svc := range im.Requires {
				if e := st.EnsureService(svc); e != nil {
					t.Errorf("stack %d: %v", i, e)
				}
			}
			mod := im.New(st, 0)
			st.AddModule(mod)
			st.Bind(abcast.ServiceImpl, mod)
			sink := &deliverySink{Base: kernel.NewBase(st, "sink"), fn: func(d abcast.Deliver) {
				if len(d.Data) == size {
					delivered <- struct{}{}
				}
			}}
			st.AddModule(sink)
			st.Subscribe(abcast.ServiceImpl, sink)
			mod.Start()
		}); err != nil {
			t.Fatal(err)
		}
	}
	payload := make([]byte, size) // immutable, so one buffer serves every broadcast
	round := func(count int) {
		for sent, got := 0, 0; got < n*count; {
			for ; sent < count && n*sent < got+n*inFlight; sent++ {
				stacks[sent%n].Call(abcast.ServiceImpl, abcast.Broadcast{Data: payload})
			}
			select {
			case <-delivered:
				got++
			case <-time.After(30 * time.Second):
				t.Fatalf("delivered %d of %d", got, n*count)
			}
		}
	}
	round(2 * n) // connections up, reassembly buffers sized
	var before, after runtime.MemStats
	clean := tr.Stats() // losing the simultaneous-dial tie-break costs a write error during warm-up
	runtime.ReadMemStats(&before)
	round(messages)
	runtime.ReadMemStats(&after)
	perMsg := float64(after.TotalAlloc-before.TotalAlloc) / messages
	t.Logf("%.2f MB allocated per 128-KiB broadcast", perMsg/(1<<20))
	if perMsg > budget {
		t.Errorf("a 128-KiB broadcast allocates %.2f MB process-wide, budget %.2f MB", perMsg/(1<<20), budget/(1<<20))
	}
	if st := tr.Stats(); st.SendErrs != clean.SendErrs || st.Malformed != 0 || st.Reconnects != clean.Reconnects {
		t.Errorf("transport stats %+v (after warm-up: %+v): the measured interval was not clean", st, clean)
	}
}

// countingModule is a provider that only counts the requests it is
// handed: the dispatch budgets measure the kernel, not a module.
type countingModule struct {
	kernel.Base
	count *atomic.Int64
}

func (m *countingModule) HandleRequest(kernel.ServiceID, kernel.Request) { m.count.Add(1) }

// deliverySink hands every atomic-broadcast delivery to fn.
type deliverySink struct {
	kernel.Base
	fn func(abcast.Deliver)
}

func (s *deliverySink) HandleIndication(_ kernel.ServiceID, ind kernel.Indication) {
	if d, ok := ind.(abcast.Deliver); ok {
		s.fn(d)
	}
}
