package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/kernel"
	"repro/internal/wire"
)

// encView encodes one tagView wire message, mirroring viewABcast.
func encView(sn uint64, initiator kernel.Addr, reqID uint64, op ViewOp, assign bool, member kernel.Addr, endpoint string) []byte {
	var aFlag byte
	if assign {
		aFlag = 1
	}
	w := wire.NewWriter(len(endpoint) + 32)
	w.Byte(tagView).Uvarint(sn).Uvarint(uint64(initiator)).Uvarint(reqID).
		Byte(byte(op)).Byte(aFlag).Uvarint(uint64(member)).String(endpoint)
	return w.Bytes()
}

// pumpOwnBroadcasts feeds every message the bound mock has sent back as
// a delivery (a single-stack group's inner protocol does exactly this).
// Events cascade through the executor (a Call can enqueue further
// Calls), so the pump only stops after several consecutive settled
// empty reads.
func (r *rig) pumpOwnBroadcasts(t *testing.T) {
	t.Helper()
	empty := 0
	for empty < 3 {
		r.sync(t) // let queued inner Calls land in the mock
		var pending [][]byte
		if err := r.st.DoSync(func() {
			cur := r.cur()
			pending = cur.sent
			cur.sent = nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(pending) == 0 {
			empty++
			continue
		}
		empty = 0
		for _, msg := range pending {
			r.injectDeliver(msg)
		}
		r.sync(t)
	}
}

func TestViewJoinAssignBumpsEpochAndReinstalls(t *testing.T) {
	r := newRig(t, Config{})
	var got ViewReply
	done := make(chan struct{})
	r.st.Call(Service, ChangeView{
		Op: ViewJoin, Assign: true, Endpoint: "joiner:1",
		Reply: func(vr ViewReply) { got = vr; close(done) },
	})
	r.pumpOwnBroadcasts(t)
	<-done
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	ev := got.Ev
	// The single founder is addr 0, so the allocator assigns 1.
	if ev.Member != 1 || ev.Sn != 1 || ev.ViewID != 1 || ev.NoOp {
		t.Fatalf("join reply %+v", ev)
	}
	if fmt.Sprint(ev.Members) != "[0 1]" {
		t.Fatalf("members %v", ev.Members)
	}
	if ev.Endpoints[1] != "joiner:1" {
		t.Fatalf("endpoints %v", ev.Endpoints)
	}
	if ev.NextID != 2 {
		t.Fatalf("nextID %d", ev.NextID)
	}
	r.st.DoSync(func() {
		if fmt.Sprint(r.st.Peers()) != "[0 1]" {
			t.Errorf("stack peers %v", r.st.Peers())
		}
		if r.st.Endpoint(1) != "joiner:1" {
			t.Errorf("stack endpoint %q", r.st.Endpoint(1))
		}
	})
	// A view change is a reinstall: a second mock instance at epoch 1.
	if len(*r.mocks) != 2 || (*r.mocks)[1].epoch != 1 {
		t.Fatalf("mocks %d, epoch %d", len(*r.mocks), (*r.mocks)[1].epoch)
	}
	r.sync(t)
	if len(r.sink.views) != 1 || len(r.sink.switches) != 1 {
		t.Fatalf("views %d switches %d", len(r.sink.views), len(r.sink.switches))
	}
}

func TestViewLeaveOfAbsentMemberIsNoOp(t *testing.T) {
	r := newRig(t, Config{})
	var got ViewReply
	done := make(chan struct{})
	r.st.Call(Service, ChangeView{
		Op: ViewLeave, Member: 7,
		Reply: func(vr ViewReply) { got = vr; close(done) },
	})
	r.pumpOwnBroadcasts(t)
	<-done
	if got.Err != nil || !got.Ev.NoOp {
		t.Fatalf("reply %+v", got)
	}
	if got.Ev.Sn != 0 || got.Ev.ViewID != 0 {
		t.Fatalf("no-op advanced state: %+v", got.Ev)
	}
	if len(*r.mocks) != 1 {
		t.Fatalf("no-op reinstalled the implementation (%d instances)", len(*r.mocks))
	}
}

func TestViewOpLosingEpochRaceIsAlwaysRebroadcast(t *testing.T) {
	// Unlike ChangeProtocol, view ops retry even with RetryLostChange
	// unset: the operation's intent does not depend on the epoch.
	r := newRig(t, Config{RetryLostChange: false})
	r.st.DoSync(func() { r.repl.sn = 3 })
	r.injectDeliver(encView(2, 0, 9, ViewJoin, false, 5, "ep:5"))
	r.sync(t)
	var resent [][]byte
	r.st.DoSync(func() { resent = r.cur().sent })
	if len(resent) != 1 {
		t.Fatalf("lost view op rebroadcast %d times, want 1", len(resent))
	}
	rd := wire.NewReader(resent[0])
	if tag := rd.Byte(); tag != tagView {
		t.Fatalf("rebroadcast tag %d", tag)
	}
	if sn := rd.Uvarint(); sn != 3 {
		t.Fatalf("rebroadcast sn %d, want 3", sn)
	}
}

func TestSelfEvictionRetiresInnerModule(t *testing.T) {
	r := newRig(t, Config{})
	// Admit member 1, then deliver this stack's own eviction.
	r.st.Call(Service, ChangeView{Op: ViewJoin, Member: 1})
	r.pumpOwnBroadcasts(t)
	r.st.Call(Service, ChangeView{Op: ViewLeave, Member: 0})
	r.pumpOwnBroadcasts(t)
	r.sync(t)
	var (
		sn      uint64
		curNil  bool
		stopped bool
		peers   string
	)
	r.st.DoSync(func() {
		sn = r.repl.sn
		curNil = r.repl.cur == nil
		stopped = (*r.mocks)[1].stopped
		peers = fmt.Sprint(r.st.Peers())
	})
	if sn != 2 || !curNil || !stopped {
		t.Fatalf("self-eviction: sn=%d curNil=%v stopped=%v", sn, curNil, stopped)
	}
	if peers != "[1]" {
		t.Fatalf("peers after self-eviction %s", peers)
	}
	if len(r.sink.views) != 2 || fmt.Sprint(r.sink.views[1].Members) != "[1]" {
		t.Fatalf("views %+v", r.sink.views)
	}
}

func TestSelfEvictionFailsPendingRequests(t *testing.T) {
	// Member 1's eviction of this stack is ordered while a view change
	// and a protocol change of this stack are still unordered: nobody
	// will ever order them, so their callers — and every caller after —
	// get ErrEvicted, in request order.
	r := newRig(t, Config{})
	r.st.Call(Service, ChangeView{Op: ViewJoin, Member: 1})
	r.pumpOwnBroadcasts(t)
	var got []string
	note := func(what string, err error) {
		got = append(got, fmt.Sprintf("%s: %v", what, errors.Is(err, ErrEvicted)))
	}
	r.st.Call(Service, ChangeView{Op: ViewJoin, Member: 7, Reply: func(vr ViewReply) { note("join", vr.Err) }})
	r.st.Call(Service, ChangeProtocol{Protocol: "mock2", Reply: func(cr ChangeReply) { note("change", cr.Err) }})
	r.sync(t)
	r.injectDeliver(encView(1, 1, 1, ViewLeave, false, 0, ""))
	r.st.Call(Service, ChangeProtocol{Protocol: "mock2", Reply: func(cr ChangeReply) { note("late change", cr.Err) }})
	r.st.Call(Service, ChangeView{Op: ViewLeave, Member: 1, Reply: func(vr ViewReply) { note("late leave", vr.Err) }})
	r.sync(t)
	r.sync(t)
	var pending int
	r.st.DoSync(func() { pending = len(r.repl.pendingViews) + len(r.repl.pendingChanges) })
	want := "[join: true change: true late change: true late leave: true]"
	if fmt.Sprint(got) != want || pending != 0 {
		t.Fatalf("replies %v (still pending: %d), want %s", got, pending, want)
	}
}

func TestNextIDMonotonicAcrossLeaveAndRejoin(t *testing.T) {
	// Evicting the highest member must not make the allocator reuse its
	// id: a later Assign-join gets a fresh one.
	r := newRig(t, Config{})
	join := func(assign bool, member kernel.Addr) ViewChange {
		var got ViewReply
		done := make(chan struct{})
		r.st.Call(Service, ChangeView{
			Op: ViewJoin, Assign: assign, Member: member,
			Reply: func(vr ViewReply) { got = vr; close(done) },
		})
		r.pumpOwnBroadcasts(t)
		<-done
		if got.Err != nil {
			t.Fatal(got.Err)
		}
		return got.Ev
	}
	if ev := join(true, 0); ev.Member != 1 {
		t.Fatalf("first assign %+v", ev)
	}
	r.st.Call(Service, ChangeView{Op: ViewLeave, Member: 1})
	r.pumpOwnBroadcasts(t)
	if ev := join(true, 0); ev.Member != 2 {
		t.Fatalf("post-eviction assign got member %d, want 2", ev.Member)
	}
}

func TestChangeViewValidation(t *testing.T) {
	r := newRig(t, Config{})
	bad := []ChangeView{
		{Op: ViewOp(9)},
		{Op: ViewLeave, Assign: true},
		{Op: ViewJoin, Member: -1},
	}
	for i, req := range bad {
		errCh := make(chan error, 1)
		req.Reply = func(vr ViewReply) { errCh <- vr.Err }
		r.st.Call(Service, req)
		r.sync(t)
		select {
		case err := <-errCh:
			if err == nil {
				t.Errorf("case %d: invalid request accepted", i)
			}
		default:
			t.Errorf("case %d: no immediate reply", i)
		}
		var sent int
		r.st.DoSync(func() { sent = len(r.cur().sent) })
		if sent != 0 {
			t.Errorf("case %d: invalid request was broadcast", i)
		}
	}
}
