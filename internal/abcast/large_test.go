package abcast_test

import (
	"fmt"
	"testing"

	"repro/internal/abcast"
	"repro/internal/consensus"
	"repro/internal/fd"
	"repro/internal/kernel"
	"repro/internal/rbcast"
	"repro/internal/rp2p"
	"repro/internal/simnet"
	"repro/internal/stacktest"
	"repro/internal/transport"
	"repro/internal/transport/transporttest"
	"repro/internal/udp"
)

// patterned is a recognisable buffer of n bytes.
func patterned(tag byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag + byte(i*13+i>>10)
	}
	return b
}

// TestCTLargePayloadsOverTCP runs abcast/ct's by-reference send path
// where it ends in a writev: three stacks over in-process TCP loopback,
// every stack broadcasting 128-KiB payloads between small ones. All of it
// is delivered once, byte for byte and in one total order, no frame is
// rejected, and the link writers — which read the
// broadcasters' buffers while the executors still hold them — leave those
// buffers as they were. Run under -race in CI.
func TestCTLargePayloadsOverTCP(t *testing.T) {
	book := make(map[transport.Addr]string)
	for i, a := range transporttest.ReserveStreamAddrs(t, 3) {
		book[transport.Addr(i)] = a
	}
	tr, err := transport.NewTCP(transport.TCPConfig{Book: book, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := stacktest.New(t, 3, simnet.Config{}, nil)
	c.Reg.MustRegister(udp.Factory(tr))
	c.Reg.MustRegister(rp2p.Factory(rp2p.Config{}))
	c.Reg.MustRegister(rbcast.Factory(rbcast.Config{}))
	c.Reg.MustRegister(fd.Factory(fd.Config{}))
	c.Reg.MustRegister(consensus.Factory())
	sinks := make([]*sink, 3)
	for i := range sinks {
		sinks[i] = attach(t, c, i, abcast.CTImpl(), 0, abcast.ServiceImpl)
	}
	delta := stacktest.CounterDelta()

	const rounds = 6
	sent := make([][][]byte, 3) // per origin, in broadcast order
	for r := 0; r < rounds; r++ {
		for i, st := range c.Stacks {
			for _, data := range [][]byte{
				[]byte(fmt.Sprintf("%d<%d", i, r)),
				patterned(byte(16*i+r), 128<<10+r),
				[]byte(fmt.Sprintf("%d>%d", i, r)),
			} {
				sent[i] = append(sent[i], data)
				st.Call(abcast.ServiceImpl, abcast.Broadcast{Data: data})
			}
		}
	}
	waitAll(t, c, sinks, 3*3*rounds, nil)
	checkTotalOrder(t, sinks, nil)
	checkNoDuplicates(t, sinks, nil)
	broadcast := make(map[delivery]bool)
	for o := range sent {
		for _, data := range sent[o] {
			broadcast[delivery{origin: kernel.Addr(o), data: string(data)}] = true
		}
	}
	for i, s := range sinks {
		for k, d := range s.snapshot() {
			if !broadcast[d] {
				t.Fatalf("stack %d: delivery %d (%d bytes from origin %d) is nothing that origin broadcast", i, k, len(d.data), d.origin)
			}
		}
	}
	// (SendErrs may count a write into the connection that lost a
	// simultaneous-dial tie-break; rp2p resends what that dropped.)
	if st := tr.Stats(); st.Malformed != 0 {
		t.Errorf("transport stats %+v", st)
	}
	if n := delta("wire.frames_rejected"); n != 0 {
		t.Errorf("%d frames rejected", n)
	}
	for i := range sent {
		for r := 0; r < rounds; r++ {
			if want := patterned(byte(16*i+r), 128<<10+r); string(sent[i][3*r+1]) != string(want) {
				t.Fatalf("origin %d: the buffer of large payload %d changed after it was broadcast", i, r)
			}
		}
	}
}
