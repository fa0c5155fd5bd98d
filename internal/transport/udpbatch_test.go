package transport

// Conformance suite for Enqueue/Flush on the real-socket transport, run
// over every shape it can take: the batched syscall backend, the
// portable fallback (NewPortableUDP), and the Faulty decorator.
// transporttest deliberately cannot import this package, so the suite
// lives here, next to the implementations.

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// batchVariant builds one transport shape to run the conformance suite
// against: the transport whose endpoints are driven, plus the raw
// *UDPTransport for stats.
type batchVariant struct {
	name string
	mk   func(t *testing.T, cfg UDPConfig) (Transport, *UDPTransport)
}

func batchVariants() []batchVariant {
	return []batchVariant{
		{"batched", func(t *testing.T, cfg UDPConfig) (Transport, *UDPTransport) {
			u, err := NewUDP(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return u, u
		}},
		{"fallback", func(t *testing.T, cfg UDPConfig) (Transport, *UDPTransport) {
			u, err := NewPortableUDP(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return u, u
		}},
		{"faulty", func(t *testing.T, cfg UDPConfig) (Transport, *UDPTransport) {
			u, err := NewUDP(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// All rates zero: the decorator must pass batching through
			// untouched.
			return Faulty(u, FaultConfig{Seed: 1}), u
		}},
	}
}

// unwrap returns the socket endpoint under a Faulty decorator.
func unwrap(ep Endpoint) *udpEndpoint {
	if f, ok := ep.(faultyEndpoint); ok {
		ep = f.ep
	}
	return ep.(*udpEndpoint)
}

// TestBatchSenderConformance checks the Enqueue/Flush contract on every
// transport shape: Enqueue+Flush is observationally a sequence of
// Sends — per-destination FIFO order, payload-counting delivery, loss
// on oversized or unroutable payloads — regardless of how many
// datagrams and syscalls carry it.
func TestBatchSenderConformance(t *testing.T) {
	for _, v := range batchVariants() {
		t.Run(v.name+"/flush-ordering", func(t *testing.T) {
			tr, u := v.mk(t, UDPConfig{Book: reserveBook(t, 3)})
			defer tr.Close()
			recv1, ch1 := collector(256)
			recv2, ch2 := collector(256)
			if _, err := openEach(tr, 1, recv1); err != nil {
				t.Fatal(err)
			}
			if _, err := openEach(tr, 2, recv2); err != nil {
				t.Fatal(err)
			}
			ep0, err := openEach(tr, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Interleave two destinations across several flush cycles —
			// more than one sendmmsg worth in the last cycle.
			const perCycle, cycles = 40, 3
			for c := 0; c < cycles; c++ {
				for i := 0; i < perCycle; i++ {
					ep0.Enqueue(1, []byte(fmt.Sprintf("to1-%d-%d", c, i)), nil)
					ep0.Enqueue(2, []byte(fmt.Sprintf("to2-%d-%d", c, i)), nil)
				}
				ep0.Flush()
			}
			for c := 0; c < cycles; c++ {
				for i := 0; i < perCycle; i++ {
					expectPacket(t, ch1, packet{0, fmt.Sprintf("to1-%d-%d", c, i)})
					expectPacket(t, ch2, packet{0, fmt.Sprintf("to2-%d-%d", c, i)})
				}
			}
			// 240 small payloads: each flush packs what it sends to a peer
			// into one datagram, and the batched backend writes both with
			// one sendmmsg.
			st := u.Stats()
			if want := uint64(2 * perCycle * cycles); st.Delivered != want || st.Sent > 2*cycles {
				t.Fatalf("%d payloads delivered in %d datagrams; want %d in at most %d", st.Delivered, st.Sent, want, 2*cycles)
			}
			if BatchSyscallsAvailable() && v.name != "fallback" && st.SendCalls > cycles {
				t.Fatalf("batched backend used %d send syscalls for %d flushes", st.SendCalls, cycles)
			}
		})

		t.Run(v.name+"/over-the-cap", func(t *testing.T) {
			tr, u := v.mk(t, UDPConfig{Book: reserveBook(t, 2), MaxPacket: 2048})
			defer tr.Close()
			recv1, ch1 := collector(16)
			if _, err := openEach(tr, 1, recv1); err != nil {
				t.Fatal(err)
			}
			ep0, err := openEach(tr, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			// The cap is MaxPacket; a datagram of four 500-byte payloads
			// (3 + 4×502 bytes) fits under it, five do not.
			if c := unwrap(ep0).cap; c != 2048 {
				t.Fatalf("cap %d, want MaxPacket", c)
			}
			var want []string
			for i := 0; i < 10; i++ {
				p := fmt.Sprintf("%03d%s", i, make([]byte, 497))
				want = append(want, p)
				ep0.Enqueue(1, []byte(p), nil)
			}
			ep0.Flush()
			for _, p := range want {
				expectPacket(t, ch1, packet{0, p})
			}
			if st := u.Stats(); st.Sent != 3 || st.Delivered != 10 || st.Bytes != 5000 {
				t.Fatalf("10 payloads of 500 bytes under a 2048-byte cap: %+v, want 3 datagrams", st)
			}
		})

		t.Run(v.name+"/a-payload-of-the-cap-travels-alone", func(t *testing.T) {
			tr, u := v.mk(t, UDPConfig{Book: reserveBook(t, 2)})
			defer tr.Close()
			recv1, ch1 := collector(16)
			if _, err := openEach(tr, 1, recv1); err != nil {
				t.Fatal(err)
			}
			ep0, err := openEach(tr, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			unwrap(ep0).cap = 1000 // as if bound on a link of MTU 1028
			big := string(make([]byte, 1000))
			for _, p := range []string{"a", big, "b"} {
				ep0.Enqueue(1, []byte(p), nil)
			}
			ep0.Flush()
			for _, p := range []string{"a", big, "b"} {
				expectPacket(t, ch1, packet{0, p})
			}
			if st := u.Stats(); st.Sent != 3 || st.Delivered != 3 {
				t.Fatalf("a payload of exactly the cap between two small ones: %+v, want 3 datagrams", st)
			}
		})

		t.Run(v.name+"/oversized-and-unroutable-in-batch", func(t *testing.T) {
			tr, u := v.mk(t, UDPConfig{Book: reserveBook(t, 2), MaxPacket: 2048})
			defer tr.Close()
			recv1, ch1 := collector(16)
			if _, err := openEach(tr, 1, recv1); err != nil {
				t.Fatal(err)
			}
			ep0, err := openEach(tr, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			ep0.Enqueue(1, []byte("ok-1"), nil)
			ep0.Enqueue(1, make([]byte, 4096), nil) // over MaxPacket: rejected, loss
			ep0.Enqueue(9, []byte("nowhere"), nil)  // not in book: rejected, loss
			ep0.Enqueue(1, []byte("ok-2"), nil)
			ep0.Flush()
			expectPacket(t, ch1, packet{0, "ok-1"})
			expectPacket(t, ch1, packet{0, "ok-2"})
			expectQuiet(t, ch1, 50*time.Millisecond)
			st := u.Stats()
			if st.Sent != 1 || st.Delivered != 2 || st.SendErrs != 2 {
				t.Fatalf("want 2 payloads in 1 datagram + 2 errors, got %+v", st)
			}
		})

		t.Run(v.name+"/empty-flush", func(t *testing.T) {
			tr, u := v.mk(t, UDPConfig{Book: reserveBook(t, 1)})
			defer tr.Close()
			ep0, err := openEach(tr, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				ep0.Flush()
			}
			if st := u.Stats(); st.Sent != 0 || st.SendErrs != 0 {
				t.Fatalf("empty flushes must be no-ops, got %+v", st)
			}
		})
	}
}

// TestUDPSendRacesEnqueueFlush sends from a second goroutine while the
// owner of the queue runs Enqueue and Flush — what Faulty's delayed
// datagrams do to the stack executor — on every shape of the backend
// and behind a delaying decorator. The race detector is the main check;
// beyond it, every payload arrives exactly once, whole, from its sender.
func TestUDPSendRacesEnqueueFlush(t *testing.T) {
	variants := append(batchVariants(), batchVariant{"faulty-delayed", func(t *testing.T, cfg UDPConfig) (Transport, *UDPTransport) {
		u, err := NewUDP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return Faulty(u, FaultConfig{Seed: 1, Delay: time.Millisecond}), u
	}})
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			tr, _ := v.mk(t, UDPConfig{Book: reserveBook(t, 2), SocketBuffer: 1 << 20})
			defer tr.Close()
			recv1, ch1 := collector(1024)
			if _, err := openEach(tr, 1, recv1); err != nil {
				t.Fatal(err)
			}
			ep0, err := openEach(tr, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			const n = 200
			want := make(map[string]bool, 2*n)
			for i := 0; i < n; i++ {
				want[fmt.Sprintf("send-%03d", i)] = true
				want[fmt.Sprintf("enqueue-%03d|body", i)] = true
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					ep0.Send(1, []byte(fmt.Sprintf("send-%03d", i)))
				}
			}()
			for i := 0; i < n; i++ {
				ep0.Enqueue(1, []byte(fmt.Sprintf("enqueue-%03d|", i)), []byte("body"))
				if i%8 == 7 {
					ep0.Flush()
				}
			}
			ep0.Flush()
			wg.Wait()
			for i := 0; i < 2*n; i++ {
				select {
				case p := <-ch1:
					if p.from != 0 || !want[p.data] {
						t.Fatalf("delivered %+v, which was not sent or arrived twice", p)
					}
					delete(want, p.data)
				case <-time.After(5 * time.Second):
					t.Fatalf("timed out with %d payloads missing", len(want))
				}
			}
		})
	}
}

// TestBatchPartialSendError drives a real partial-batch sendmmsg
// failure: with MaxPacket raised past the UDP payload ceiling, a
// middle payload passes the config check, travels alone because it is
// larger than the cap, and draws EMSGSIZE from the kernel. Only it is
// lost (SendErrs); the datagrams before and after it still go out, in
// order.
func TestBatchPartialSendError(t *testing.T) {
	if !BatchSyscallsAvailable() {
		t.Skip("no batched syscall backend on this platform")
	}
	tr, err := NewUDP(UDPConfig{Book: reserveBook(t, 2), MaxPacket: 80000})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	recv1, ch1 := collector(16)
	if _, err := openEach(tr, 1, recv1); err != nil {
		t.Fatal(err)
	}
	ep0, err := openEach(tr, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ep0.Enqueue(1, []byte("before"), nil)
	ep0.Enqueue(1, make([]byte, 70000), nil) // > 65507: kernel rejects with EMSGSIZE
	ep0.Enqueue(1, []byte("after"), nil)
	ep0.Flush()
	expectPacket(t, ch1, packet{0, "before"})
	expectPacket(t, ch1, packet{0, "after"})
	st := tr.Stats()
	if st.Sent != 2 || st.SendErrs != 1 || st.Delivered != 2 {
		t.Fatalf("partial-batch error must count as loss: %+v", st)
	}
}

// TestOpenBatchDelivery checks batched receive end to end: a burst of
// Sends — a datagram each — arrives through the RecvFunc with
// correct senders, payloads and order, and the batched backend uses far
// fewer read syscalls than datagrams.
//
// A reader left to itself can drain loopback as fast as the sender
// fills it, one datagram per recvmmsg, so the test does not leave it to
// itself: the first callback holds the read loop until the last Send
// has returned. Loopback delivers inside the sender's syscall, so by
// then every other datagram sits in the socket buffer and the next
// recvmmsg cannot help returning a batch.
func TestOpenBatchDelivery(t *testing.T) {
	tr, err := NewUDP(UDPConfig{Book: reserveBook(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	type delivery struct {
		batch int
		pkt   packet
	}
	ch := make(chan delivery, 512)
	flushed := make(chan struct{})
	batches := 0
	if _, err := tr.OpenBatch(1, func(pkts []Packet) {
		batches++
		if batches == 1 {
			<-flushed
		}
		for _, p := range pkts {
			ch <- delivery{batches, packet{p.From, string(p.Data)}}
		}
	}); err != nil {
		t.Fatal(err)
	}
	ep0, err := openEach(tr, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		ep0.Send(1, []byte(fmt.Sprintf("m%03d", i)))
	}
	close(flushed)
	maxBatch := 0
	for i := 0; i < n; i++ {
		select {
		case d := <-ch:
			if want := fmt.Sprintf("m%03d", i); d.pkt.data != want || d.pkt.from != 0 {
				t.Fatalf("delivery %d: got %+v want %q from 0", i, d.pkt, want)
			}
			if d.batch > maxBatch {
				maxBatch = d.batch
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out at delivery %d", i)
		}
	}
	st := tr.Stats()
	if st.Delivered != n {
		t.Fatalf("delivered %d want %d", st.Delivered, n)
	}
	if BatchSyscallsAvailable() {
		if maxBatch >= n/2 {
			t.Errorf("no batching observed: %d batches for %d datagrams", maxBatch, n)
		}
	}
}

// TestFaultySimSingletonBatches checks the simulated fabric through the
// decorator keeps the per-datagram granularity that keeps scenario
// digests bit-identical: an Enqueue leaves at once, with no Flush, as a
// Send does, and every datagram arrives as its own singleton batch.
// (Arrival order is simnet's business: its default jitter may reorder.)
func TestFaultySimSingletonBatches(t *testing.T) {
	net := simnet.New(simnet.Config{})
	ft := Faulty(Sim(net), FaultConfig{Seed: 7})
	defer ft.Close()
	ch := make(chan packet, 64)
	if _, err := ft.OpenBatch(1, func(pkts []Packet) {
		if len(pkts) != 1 {
			t.Errorf("the simulated fabric delivered %d packets in one batch", len(pkts))
		}
		for _, p := range pkts {
			ch <- packet{p.From, string(p.Data)}
		}
	}); err != nil {
		t.Fatal(err)
	}
	ep0, err := openEach(ft, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			ep0.Send(1, []byte(fmt.Sprintf("s%02d", i)))
		} else {
			ep0.Enqueue(1, []byte(fmt.Sprintf("s%02d", i)), nil) // never flushed
		}
	}
	got := make(map[string]bool, 20)
	for i := 0; i < 20; i++ {
		select {
		case p := <-ch:
			if p.from != 0 || got[p.data] {
				t.Fatalf("unexpected or duplicate packet %+v", p)
			}
			got[p.data] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out after %d packets", i)
		}
	}
	for i := 0; i < 20; i++ {
		if !got[fmt.Sprintf("s%02d", i)] {
			t.Fatalf("missing packet s%02d", i)
		}
	}
}

// TestFaultyBatchFates checks that fault fates apply per-Enqueue on the
// batched path: with full loss nothing leaves; after healing, delayed
// datagrams still arrive (via the decorator's timer path).
func TestFaultyBatchFates(t *testing.T) {
	u, err := NewUDP(UDPConfig{Book: reserveBook(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	ft := Faulty(u, FaultConfig{Seed: 3, LossRate: 1})
	defer ft.Close()
	recv1, ch1 := collector(64)
	if _, err := openEach(ft, 1, recv1); err != nil {
		t.Fatal(err)
	}
	ep0, err := openEach(ft, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		ep0.Enqueue(1, []byte("lost"), nil)
	}
	ep0.Flush()
	expectQuiet(t, ch1, 50*time.Millisecond)
	if got := ft.Stats().Dropped; got != 10 {
		t.Fatalf("dropped %d want 10", got)
	}
	ft.SetLoss(0)
	ft.SetDelay(time.Millisecond)
	ep0.Enqueue(1, []byte("delayed"), nil)
	ep0.Flush() // nothing on the queue: the delayed copy rides a timer
	expectPacket(t, ch1, packet{0, "delayed"})
}

// TestFaultyCorruptionIsPerPayload checks that fault fates stay per
// payload over the packing backend: with every payload corrupted in
// flight, each one's own checksum rejects it — wire.frames_rejected
// counts payloads, not datagrams — while the one datagram that carries
// them all is well-formed.
func TestFaultyCorruptionIsPerPayload(t *testing.T) {
	u, err := NewUDP(UDPConfig{Book: reserveBook(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	ft := Faulty(u, FaultConfig{Seed: 11, CorruptRate: 1})
	defer ft.Close()
	got := make(chan []byte, 64)
	if _, err := ft.OpenBatch(1, func(pkts []Packet) {
		for _, p := range pkts {
			got <- p.Data
		}
	}); err != nil {
		t.Fatal(err)
	}
	ep0, err := openEach(ft, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := metrics.Counters()["wire.frames_rejected"]
	const k = 20
	for i := 0; i < k; i++ {
		f := append(make([]byte, wire.FrameOverhead), fmt.Sprintf("payload %02d", i)...)
		f[0] = 1
		wire.SealFrame(f, 0)
		ep0.Enqueue(1, f, nil)
	}
	ep0.Flush()
	for i := 0; i < k; i++ {
		select {
		case d := <-got:
			if _, _, ok := wire.OpenFrame(d, 0); ok {
				t.Fatalf("corrupted payload %d opened", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out at payload %d", i)
		}
	}
	rejected := metrics.Counters()["wire.frames_rejected"] - before
	if fs := ft.Stats(); fs.Corrupted != k || rejected != k {
		t.Fatalf("%d payloads corrupted, %d frames rejected; want %d and %d", fs.Corrupted, rejected, k, k)
	}
	if st := u.Stats(); st.Sent != 1 || st.Delivered != k || st.Malformed != 0 {
		t.Fatalf("socket stats %+v, want %d payloads in one well-formed datagram", st, k)
	}
}

// TestLinkCap checks where the packing cap comes from: the MTU of the
// interface holding the bound address — loopback's, clamped to
// MaxDatagram, for 127.0.0.1 — or the smallest up interface's for a
// wildcard bind, and never more than MaxPacket.
func TestLinkCap(t *testing.T) {
	capOf := func(cfg UDPConfig) int {
		tr, err := NewUDP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		ep, err := openEach(tr, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return unwrap(ep).cap
	}
	ifs, err := net.Interfaces()
	if err != nil {
		t.Skipf("no interfaces to read: %v", err)
	}
	loopback, smallest := 0, 0
	for _, ifc := range ifs {
		if ifc.Flags&net.FlagUp == 0 || ifc.MTU <= 0 {
			continue
		}
		if ifc.Flags&net.FlagLoopback != 0 {
			loopback = ifc.MTU
		}
		if smallest == 0 || ifc.MTU < smallest {
			smallest = ifc.MTU
		}
	}
	t.Logf("loopback MTU %d, smallest up MTU %d", loopback, smallest)
	if want := min(loopback-28, MaxDatagram); capOf(UDPConfig{Book: reserveBook(t, 1)}) != want {
		t.Errorf("cap at 127.0.0.1 is %d, want %d", capOf(UDPConfig{Book: reserveBook(t, 1)}), want)
	}
	if loopback >= 65536 && capOf(UDPConfig{Book: reserveBook(t, 1)}) != 65507 {
		t.Errorf("cap on a 64-KiB loopback is not MaxDatagram")
	}
	if got := capOf(UDPConfig{Book: reserveBook(t, 1), MaxPacket: 4096}); got != 4096 {
		t.Errorf("cap under MaxPacket 4096 is %d", got)
	}
	if want, got := min(smallest-28, MaxDatagram), capOf(UDPConfig{Book: map[Addr]string{0: "0.0.0.0:0"}}); got != want {
		t.Errorf("cap of a wildcard bind is %d, want %d (smallest up MTU %d)", got, want, smallest)
	}
}
