package audit

import (
	"testing"
	"time"

	"repro/internal/kernel"
)

// Section-3 self-tests. The first group feeds kernel trace events by
// hand; the second runs real kernel stacks with the Auditor as their
// tracer, which is the only way to witness a parked call: the product
// never parks one (see docs/ARCHITECTURE.md).

func trace(a *Auditor, evs ...kernel.TraceEvent) *Report {
	for _, ev := range evs {
		a.Trace(ev)
	}
	return a.Report()
}

func TestTraceIgnoresHotKinds(t *testing.T) {
	a := New()
	rep := trace(a,
		kernel.TraceEvent{Stack: 0, Kind: kernel.TraceCall, Service: "s"},
		kernel.TraceEvent{Stack: 1, Kind: kernel.TraceIndicate, Service: "s"},
		kernel.TraceEvent{Stack: 1, Kind: kernel.TraceUnbind, Protocol: "p"},
	)
	wantClean(t, rep)
	if len(a.stacks) != 0 {
		t.Fatalf("hot trace kinds registered %d stacks", len(a.stacks))
	}
	// A bind registers its stack, and from then on the group must hold
	// the bound protocol.
	rep = trace(a, kernel.TraceEvent{Stack: 0, Kind: kernel.TraceBind, Protocol: "p"})
	wantViolation(t, rep, "protocol-operationability", "stack 0")
}

func TestWellFormednessHoldsWhenAllCallsFlushed(t *testing.T) {
	rep := trace(New(),
		kernel.TraceEvent{Stack: 0, Kind: kernel.TraceCallBlocked, Service: "s"},
		kernel.TraceEvent{Stack: 0, Kind: kernel.TraceCallBlocked, Service: "s"},
		kernel.TraceEvent{Stack: 0, Kind: kernel.TraceCallUnblocked, Service: "s", Blocked: 3 * time.Millisecond},
		kernel.TraceEvent{Stack: 0, Kind: kernel.TraceCallUnblocked, Service: "s", Blocked: 5 * time.Millisecond},
	)
	wantClean(t, rep)
	if rep.Parked != 2 || rep.Released != 2 {
		t.Errorf("parked/released = %d/%d, want 2/2", rep.Parked, rep.Released)
	}
}

func TestReportZeroWhenNothingParked(t *testing.T) {
	if rep := New().Report(); rep.Parked != 0 || rep.Released != 0 {
		t.Errorf("empty auditor: parked/released = %d/%d", rep.Parked, rep.Released)
	}
}

func TestWellFormednessViolatedByParkedCall(t *testing.T) {
	rep := trace(New(), kernel.TraceEvent{Stack: 2, Kind: kernel.TraceCallBlocked, Service: "abcast"})
	wantViolation(t, rep, "stack-well-formedness", `"abcast"`, "stack 2")
}

func TestWellFormednessExemptsCrashedStacks(t *testing.T) {
	wantClean(t, trace(New(),
		kernel.TraceEvent{Stack: 2, Kind: kernel.TraceCallBlocked, Service: "abcast"},
		kernel.TraceEvent{Stack: 2, Kind: kernel.TraceCrash},
	))
	a := New()
	a.Retire(2)
	wantClean(t, trace(a, kernel.TraceEvent{Stack: 2, Kind: kernel.TraceCallBlocked, Service: "abcast"}))
}

func TestOperationabilityHolds(t *testing.T) {
	wantClean(t, trace(New(),
		kernel.TraceEvent{Stack: 0, Kind: kernel.TraceBind, Protocol: "p"},
		kernel.TraceEvent{Stack: 0, Kind: kernel.TraceModuleAdd, Protocol: "p"},
		kernel.TraceEvent{Stack: 1, Kind: kernel.TraceModuleAdd, Protocol: "p"},
		kernel.TraceEvent{Stack: 2, Kind: kernel.TraceModuleAdd, Protocol: "p"},
	))
}

func TestOperationabilityViolatedByMissingModule(t *testing.T) {
	rep := trace(New(),
		kernel.TraceEvent{Stack: 0, Kind: kernel.TraceBind, Protocol: "p"},
		kernel.TraceEvent{Stack: 0, Kind: kernel.TraceModuleAdd, Protocol: "p"},
		kernel.TraceEvent{Stack: 1, Kind: kernel.TraceModuleAdd, Protocol: "p"},
		// stack 2 never contains a module of p
		kernel.TraceEvent{Stack: 2, Kind: kernel.TraceModuleAdd, Protocol: "q"},
	)
	wantViolation(t, rep, "protocol-operationability", `"p"`, "stack 2")
}

func TestOperationabilityVacuousWhenNeverBound(t *testing.T) {
	wantClean(t, trace(New(),
		kernel.TraceEvent{Stack: 0, Kind: kernel.TraceModuleAdd, Protocol: "p"},
		kernel.TraceEvent{Stack: 1, Kind: kernel.TraceModuleAdd, Protocol: "q"},
	))
}

func TestOperationabilityExemptsJoiners(t *testing.T) {
	// Stack 2 joined after the group replaced p by q: it holds q only.
	a := New()
	a.Join(2)
	evs := []kernel.TraceEvent{
		{Stack: 0, Kind: kernel.TraceBind, Protocol: "p"},
		{Stack: 0, Kind: kernel.TraceModuleAdd, Protocol: "p"},
		{Stack: 0, Kind: kernel.TraceBind, Protocol: "q"},
		{Stack: 0, Kind: kernel.TraceModuleAdd, Protocol: "q"},
		{Stack: 2, Kind: kernel.TraceBind, Protocol: "q"},
		{Stack: 2, Kind: kernel.TraceModuleAdd, Protocol: "q"},
	}
	wantClean(t, trace(a, evs...))
	// The same trace from a founder is a violation.
	wantViolation(t, trace(New(), evs...), "protocol-operationability", `"p"`, "stack 2")
}

func TestOperationabilityExemptsCrashedStacks(t *testing.T) {
	wantClean(t, trace(New(),
		kernel.TraceEvent{Stack: 0, Kind: kernel.TraceBind, Protocol: "p"},
		kernel.TraceEvent{Stack: 0, Kind: kernel.TraceModuleAdd, Protocol: "p"},
		kernel.TraceEvent{Stack: 1, Kind: kernel.TraceModuleAdd, Protocol: "q"},
		kernel.TraceEvent{Stack: 1, Kind: kernel.TraceCrash},
	))
}

// module is a bare kernel module of one protocol.
type module struct{ kernel.Base }

// realStack starts a kernel stack at addr traced by a.
func realStack(t *testing.T, a *Auditor, addr kernel.Addr) *kernel.Stack {
	t.Helper()
	st := kernel.NewStack(kernel.Config{Addr: addr, Peers: []kernel.Addr{0, 1}, Tracer: a})
	t.Cleanup(st.Close)
	return st
}

// bindNew adds a module of protocol to st and binds it to svc.
func bindNew(t *testing.T, st *kernel.Stack, svc kernel.ServiceID, protocol string) {
	t.Helper()
	var err error
	st.DoSync(func() {
		m := &module{Base: kernel.NewBase(st, protocol)}
		if err = st.AddModule(m); err == nil {
			err = st.Bind(svc, m)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRealStackParkedCallReleasedByBind(t *testing.T) {
	a := New()
	st := realStack(t, a, 0)
	st.Call("svc", "x") // no module bound yet: the call parks
	st.DoSync(func() {})
	if rep := a.Report(); rep.Parked != 1 || rep.Released != 0 {
		t.Fatalf("before the bind: parked/released = %d/%d, want 1/0", rep.Parked, rep.Released)
	}
	bindNew(t, st, "svc", "p")
	rep := a.Report()
	wantClean(t, rep)
	if rep.Parked != 1 || rep.Released != 1 {
		t.Fatalf("parked/released = %d/%d, want 1/1", rep.Parked, rep.Released)
	}
}

func TestRealStackParkedCallNeverReleased(t *testing.T) {
	a := New()
	st := realStack(t, a, 1)
	st.Call("svc", "x")
	st.DoSync(func() {})
	wantViolation(t, a.Report(), "stack-well-formedness", `service "svc"`, "stack 1")
}

func TestRealStackCrashedStackExempt(t *testing.T) {
	a := New()
	st := realStack(t, a, 1)
	st.Call("svc", "x")
	st.DoSync(func() {})
	st.Crash()
	rep := a.Report()
	wantClean(t, rep)
	if rep.Parked != 1 || rep.Released != 0 {
		t.Fatalf("parked/released = %d/%d, want 1/0", rep.Parked, rep.Released)
	}
}

func TestRealStackProtocolNeverCreated(t *testing.T) {
	a := New()
	st0, st1 := realStack(t, a, 0), realStack(t, a, 1)
	addModule := func(st *kernel.Stack, protocol string) {
		st.DoSync(func() { st.AddModule(&module{Base: kernel.NewBase(st, protocol)}) })
	}
	bindNew(t, st0, "svc", "p")
	addModule(st1, "q")
	wantViolation(t, a.Report(), "protocol-operationability", `"p"`, "stack 1")
	// Once stack 1 holds a module of p the property holds: the module
	// need not be bound there.
	addModule(st1, "p")
	wantClean(t, a.Report())
}
