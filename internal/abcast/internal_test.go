package abcast

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/consensus"
	"repro/internal/kernel"
	"repro/internal/wire"
)

// TestQuickSortIDsDeterministic verifies the batch ordering used by the
// CT implementation is a strict total order independent of input
// permutation — the property that makes decided batches deliver in the
// same order on every stack.
func TestQuickSortIDsDeterministic(t *testing.T) {
	f := func(raw []uint16, seed uint8) bool {
		ids := make([]msgID, len(raw))
		for i, r := range raw {
			ids[i] = msgID{origin: kernel.Addr(r % 7), seq: uint64(r / 7)}
		}
		a := append([]msgID(nil), ids...)
		b := append([]msgID(nil), ids...)
		// Shuffle b deterministically from seed.
		for i := len(b) - 1; i > 0; i-- {
			j := int(seed) * (i + 3) % (i + 1)
			b[i], b[j] = b[j], b[i]
		}
		sortIDs(a)
		sortIDs(b)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		// Sorted: non-decreasing under less().
		return sort.SliceIsSorted(a, func(i, j int) bool { return a[i].less(a[j]) })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMsgIDLessIsStrictWeakOrder(t *testing.T) {
	f := func(o1, o2 uint8, s1, s2 uint32) bool {
		a := msgID{origin: kernel.Addr(o1), seq: uint64(s1)}
		b := msgID{origin: kernel.Addr(o2), seq: uint64(s2)}
		if a == b {
			return !a.less(b) && !b.less(a)
		}
		return a.less(b) != b.less(a) // exactly one direction
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCTBatchCapLeavesOverflowPending(t *testing.T) {
	// White-box: a module with more pending than maxBatch proposes only
	// the first maxBatch ids (in sorted order).
	st := kernel.NewStack(kernel.Config{Addr: 0, Peers: []kernel.Addr{0}})
	defer st.Close()
	err := st.DoSync(func() {
		im := CTImpl()
		m := im.New(st, 0).(*ctModule)
		for i := 0; i < maxBatch+50; i++ {
			m.pending[msgID{origin: 0, seq: uint64(i + 1)}] = []byte{byte(i)}
		}
		// Capture the proposal by intercepting the consensus service:
		// no consensus module is bound, so the call parks; we inspect
		// the pending-call count instead and the running flag.
		m.maybePropose()
		if m.running == 0 {
			t.Error("no proposal issued")
		}
		if got := len(m.proposed[0]); got != maxBatch {
			t.Errorf("first proposal carries %d ids, want %d", got, maxBatch)
		}
		if len(m.pending) != maxBatch+50 {
			t.Error("pending mutated by proposing")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDecBufBoundedAndEvictionsMarked(t *testing.T) {
	// White-box: out-of-order decisions beyond the cap evict the
	// furthest-ahead seq and mark it for refetch, so memory stays
	// bounded however far the stack falls behind.
	st := kernel.NewStack(kernel.Config{Addr: 0, Peers: []kernel.Addr{0}})
	defer st.Close()
	err := st.DoSync(func() {
		im := CTImpl()
		m := im.New(st, 0).(*ctModule)
		const extra = 5
		for seq := uint64(1); seq <= maxDecBuf+extra; seq++ {
			m.bufferDecision(seq, []byte{byte(seq)})
		}
		if len(m.decBuf) > maxDecBuf {
			t.Errorf("decBuf holds %d decisions, cap %d", len(m.decBuf), maxDecBuf)
		}
		if len(m.decDropped) != extra {
			t.Errorf("%d seqs marked dropped, want %d", len(m.decDropped), extra)
		}
		// The furthest-ahead seqs are the evicted ones; the near ones
		// (which unblock processing soonest) are retained.
		for seq := uint64(1); seq <= maxDecBuf; seq++ {
			if _, ok := m.decBuf[seq]; !ok {
				t.Errorf("near decision %d evicted; eviction must prefer the furthest", seq)
				break
			}
		}
		for seq := uint64(maxDecBuf + 1); seq <= maxDecBuf+extra; seq++ {
			if !m.decDropped[seq] {
				t.Errorf("far decision %d not marked for refetch", seq)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// deliveryLog records what a module indicates on ServiceImpl.
type deliveryLog struct {
	kernel.Base
	got []string
}

func (l *deliveryLog) HandleIndication(_ kernel.ServiceID, ind kernel.Indication) {
	if d, ok := ind.(Deliver); ok {
		l.got = append(l.got, string(d.Data))
	}
}

func TestCTDecisionBeforePayloadSuspendsThenResumesInOrder(t *testing.T) {
	// White-box: decision 0 orders a, b, c and arrives while b's payload
	// is still on its way; decision 1 orders d. Delivery must stop after
	// a — c and d are held but come later in the total order — and pick
	// up, in order, the moment b arrives.
	st := kernel.NewStack(kernel.Config{Addr: 0, Peers: []kernel.Addr{0}})
	defer st.Close()
	log := &deliveryLog{Base: kernel.NewBase(st, "log")}
	var m *ctModule
	ids := []msgID{{origin: 1, seq: 1}, {origin: 1, seq: 2}, {origin: 2, seq: 1}, {origin: 2, seq: 2}}
	step := func(fn func()) []string {
		t.Helper()
		if err := st.DoSync(fn); err != nil {
			t.Fatal(err)
		}
		var got []string
		if err := st.DoSync(func() { got = append(got, log.got...) }); err != nil { // indications are queued behind fn
			t.Fatal(err)
		}
		return got
	}
	waits := payloadWaits.Value()
	got := step(func() {
		st.AddModule(log)
		st.Subscribe(ServiceImpl, log)
		m = CTImpl().New(st, 0).(*ctModule)
		m.receive(ids[0], []byte("a"))
		m.receive(ids[2], []byte("c"))
		m.receive(ids[3], []byte("d"))
		m.onDecide(consensus.Decide{ID: consensus.InstanceID{Seq: 1}, Value: encodeIDs(ids[3:])})
		m.onDecide(consensus.Decide{ID: consensus.InstanceID{Seq: 0}, Value: encodeIDs(ids[:3])})
	})
	if fmt.Sprint(got) != "[a]" || m.k != 0 || !m.open {
		t.Fatalf("before b's payload: delivered %v, k=%d, open=%v; want [a] and decision 0 left open", got, m.k, m.open)
	}
	if n := payloadWaits.Value() - waits; n != 1 {
		t.Errorf("abcast.ct.payload_waits moved by %d, want 1", n)
	}
	got = step(func() {
		m.onDecide(consensus.Decide{ID: consensus.InstanceID{Seq: 0}, Value: encodeIDs(ids[:3])}) // a replay changes nothing
		m.receive(ids[1], []byte("b"))
	})
	if fmt.Sprint(got) != "[a b c d]" || m.k != 2 || m.open {
		t.Fatalf("after b's payload: delivered %v, k=%d, open=%v; want [a b c d] and both decisions closed", got, m.k, m.open)
	}
}

// TestQuickIDListRoundTrip: the run-length id list decodes to exactly
// the ids encoded, in order, whatever their order and however long the
// runs (longer than maxBatch included).
func TestQuickIDListRoundTrip(t *testing.T) {
	f := func(raw []uint16, run uint16) bool {
		var ids []msgID
		for _, r := range raw {
			ids = append(ids, msgID{origin: kernel.Addr(r % 5), seq: uint64(r / 5)})
		}
		for i := 0; i < int(run%1000); i++ {
			ids = append(ids, msgID{origin: 9, seq: uint64(100 + i)})
		}
		var got []msgID
		ok := eachID(wire.NewReader(encodeIDs(ids)), func(id msgID) bool {
			got = append(got, id)
			return true
		})
		return ok && fmt.Sprint(got) == fmt.Sprint(ids)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if eachID(wire.NewReader([]byte{1, 1}), func(msgID) bool { return true }) {
		t.Error("a truncated run decoded as well-formed")
	}
}
