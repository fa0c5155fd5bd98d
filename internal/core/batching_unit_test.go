package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/abcast"
	"repro/internal/kernel"
	"repro/internal/wire"
)

func encBatchFrame(sn uint64, origin kernel.Addr, seq uint64, records ...[]byte) []byte {
	blob := wire.NewWriter(256)
	for _, rec := range records {
		blob.BytesField(rec)
	}
	w := wire.NewWriter(blob.Len() + 24)
	w.Byte(tagBatch).Uvarint(sn).Uvarint(uint64(origin)).Uvarint(seq).Raw(blob.Bytes())
	return w.Bytes()
}

// decodeBatchFrame splits an encoded tagBatch message into its header
// and records.
func decodeBatchFrame(t *testing.T, enc []byte) (sn uint64, id msgID, records [][]byte) {
	t.Helper()
	r := wire.NewReader(enc)
	if tag := r.Byte(); tag != tagBatch {
		t.Fatalf("tag = %d, want tagBatch", tag)
	}
	sn = r.Uvarint()
	id = msgID{origin: kernel.Addr(r.Uvarint()), seq: r.Uvarint()}
	for r.Err() == nil && r.Remaining() > 0 {
		records = append(records, r.BytesField())
	}
	if r.Err() != nil {
		t.Fatalf("decode: %v", r.Err())
	}
	return sn, id, records
}

// settle runs enough executor passes for cascaded queued calls (pass-end
// flush -> inner broadcast -> mock) to drain, then runs read on the
// executor so it is synchronized with module state. read only copies
// state out: the assertions run on the test goroutine.
func (r *rig) settle(t *testing.T, read func()) {
	t.Helper()
	for i := 0; i < 4; i++ {
		r.sync(t)
	}
	if err := r.st.DoSync(read); err != nil {
		t.Fatal(err)
	}
}

// sentBy returns a copy of what mock m has been asked to broadcast, once
// the queue has settled.
func (r *rig) sentBy(t *testing.T, m func() *mockImpl) [][]byte {
	t.Helper()
	var sent [][]byte
	r.settle(t, func() { sent = append(sent, m().sent...) })
	return sent
}

// inOnePass runs fn on the executor as one event: whatever fn hands the
// replacement module shares one executor pass, and the pass's flushers
// run after it.
func (r *rig) inOnePass(t *testing.T, fn func()) {
	t.Helper()
	if err := r.st.DoSync(fn); err != nil {
		t.Fatal(err)
	}
}

// TestBatchLeavesAtPassEnd: a lone broadcast is not held for company or
// for a clock — the batch it opened closes when its executor pass ends,
// and leaves as one inner broadcast. BatchDelay is an hour, so nothing
// but the end of the pass can have sent it.
func TestBatchLeavesAtPassEnd(t *testing.T) {
	r := newRig(t, Config{BatchDelay: time.Hour})
	var sentInPass int
	r.inOnePass(t, func() {
		r.st.CallSync(Service, Broadcast{Data: []byte("solo")})
		sentInPass = len(r.cur().sent)
	})
	if sentInPass != 0 {
		t.Errorf("the batch left mid-pass (sent=%d), want it held until the pass ends", sentInPass)
	}
	sent := r.sentBy(t, r.cur)
	if len(sent) != 1 {
		t.Fatalf("sent %d inner broadcasts after the pass, want the one batch", len(sent))
	}
	if _, _, records := decodeBatchFrame(t, sent[0]); len(records) != 1 || string(records[0]) != "solo" {
		t.Errorf("records = %q, want [solo]", records)
	}
}

// TestBatchFlushesOnBytes: within one pass, a batch that reaches
// BatchBytes closes at once, and the next payload opens a batch that
// closes at the end of the same pass.
func TestBatchFlushesOnBytes(t *testing.T) {
	r := newRig(t, Config{BatchDelay: time.Hour, BatchBytes: 64})
	var openAfterFirst, openAfterSecond bool
	var undeliveredAfterSecond int
	r.inOnePass(t, func() {
		r.st.CallSync(Service, Broadcast{Data: bytes.Repeat([]byte{1}, 30)})
		openAfterFirst = r.repl.batch != nil
		r.st.CallSync(Service, Broadcast{Data: bytes.Repeat([]byte{2}, 40)})
		openAfterSecond = r.repl.batch != nil
		undeliveredAfterSecond = r.repl.undelivered.len()
		r.st.CallSync(Service, Broadcast{Data: []byte("third")})
	})
	if !openAfterFirst {
		t.Error("batch closed after 30 bytes, below the 64-byte threshold")
	}
	if openAfterSecond || undeliveredAfterSecond != 1 {
		t.Errorf("after 70 bytes: batch open=%v, undelivered=%d; want it closed mid-pass into one undelivered entry",
			openAfterSecond, undeliveredAfterSecond)
	}
	sent := r.sentBy(t, r.cur)
	if len(sent) != 2 {
		t.Fatalf("sent %d inner broadcasts, want the full batch and the pass-end one", len(sent))
	}
	if _, _, records := decodeBatchFrame(t, sent[0]); len(records) != 2 || len(records[0]) != 30 || len(records[1]) != 40 {
		t.Errorf("first batch records = %d (%v), want the two payloads in order", len(records), records)
	}
	if _, _, records := decodeBatchFrame(t, sent[1]); len(records) != 1 || string(records[0]) != "third" {
		t.Errorf("second batch records = %q, want [third]", records)
	}
}

func TestBatchDeliveryUnpacksInOrderAndFilters(t *testing.T) {
	r := newRig(t, Config{BatchDelay: time.Hour})
	delivered := func() []Deliver {
		var got []Deliver
		r.settle(t, func() { got = append(got, r.sink.delivers...) })
		return got
	}
	// A remote batch delivers each record, in packing order.
	r.injectDeliver(encBatchFrame(0, 2, 1, []byte("a"), []byte("b"), []byte("c")))
	got := delivered()
	if len(got) != 3 {
		t.Fatalf("delivered %d records, want 3", len(got))
	}
	for i, want := range []string{"a", "b", "c"} {
		if d := got[i]; string(d.Data) != want || d.Origin != 2 {
			t.Errorf("deliver[%d] = %q from %d, want %q from 2", i, d.Data, d.Origin, want)
		}
	}
	// A stale-epoch batch is discarded wholesale (Algorithm 1 line 18).
	r.injectDeliver(encBatchFrame(7, 2, 2, []byte("stale")))
	if len(delivered()) != 3 {
		t.Error("stale-epoch batch was not filtered")
	}
}

// TestBatchCaughtAtSwitchReissuedExactlyOnce: a batch is open when a
// change message is delivered in the same executor pass. The switch must
// fold it into the undelivered set and reissue it exactly once through
// the new epoch — the flush armed for the end of that pass then finds no
// batch — and stale-epoch copies are sn-filtered on delivery.
func TestBatchCaughtAtSwitchReissuedExactlyOnce(t *testing.T) {
	r := newRig(t, Config{BatchDelay: time.Hour})
	var oldMock, newMock *mockImpl
	r.inOnePass(t, func() {
		oldMock = r.cur()
		r.st.CallSync(Service, Broadcast{Data: []byte("x")})
		r.st.CallSync(Service, Broadcast{Data: []byte("y")})
		// The change arrives through the old total order at epoch 0.
		r.repl.HandleIndication(abcast.ServiceImpl, abcast.Deliver{Origin: 1, Data: encNew(0, 1, 1, "mock2")})
		newMock = r.cur()
	})
	if newMock == oldMock {
		t.Fatal("switch did not install a new implementation")
	}
	// The open batch crossed the boundary without a wasted old-epoch
	// broadcast: it was closed into the undelivered set and reissued
	// exactly once through the new epoch (sn 1).
	if sent := r.sentBy(t, func() *mockImpl { return oldMock }); len(sent) != 0 {
		t.Errorf("old impl sent %d messages, want 0 (batch reissued only through the new epoch)", len(sent))
	}
	sent := r.sentBy(t, func() *mockImpl { return newMock })
	if len(sent) != 1 {
		t.Fatalf("new impl sent %d messages, want exactly one reissue", len(sent))
	}
	reissue := sent[0]
	newSn, _, newRecords := decodeBatchFrame(t, reissue)
	if newSn != 1 {
		t.Errorf("reissue sn=%d, want 1", newSn)
	}
	if len(newRecords) != 2 || string(newRecords[0]) != "x" || string(newRecords[1]) != "y" {
		t.Errorf("reissued records %q, want [x y]", newRecords)
	}
	// A stale-epoch copy (as a crashed initiator's relay would produce)
	// is filtered; the new-epoch copy delivers both payloads and clears
	// the undelivered set.
	var delivered, undelivered int
	read := func() { delivered, undelivered = len(r.sink.delivers), r.repl.undelivered.len() }
	r.injectDeliver(encBatchFrame(0, 0, 1, []byte("x"), []byte("y")))
	if r.settle(t, read); delivered != 0 {
		t.Error("stale-epoch batch delivered")
	}
	r.injectDeliver(reissue)
	if r.settle(t, read); delivered != 2 || undelivered != 0 {
		t.Errorf("delivered %d with %d undelivered, want 2 and 0", delivered, undelivered)
	}
	// A second switch must not reissue the already-delivered batch.
	r.injectDeliver(encNew(1, 1, 2, "mock"))
	if sent := r.sentBy(t, r.cur); len(sent) != 0 {
		t.Errorf("second switch reissued %d messages, want 0 (batch already delivered)", len(sent))
	}
}
