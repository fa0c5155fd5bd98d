// Package executoronly is the dpu-lint fixture for the executoronly
// analyzer: confinement of //dpulint:executor functions to
// executor-context callers.
package executoronly

import "repro/internal/kernel"

const svc kernel.ServiceID = "fixture/svc"

// mod carries the full kernel.Module profile (ID and Protocol come from
// the embedded kernel.Base), so its handler bodies are executor context.
type mod struct {
	kernel.Base
}

func (m *mod) HandleRequest(_ kernel.ServiceID, req kernel.Request) {
	m.Stk.CallSync(svc, req) // ok: module handler
	m.helper()
}

func (m *mod) HandleIndication(kernel.ServiceID, kernel.Indication) {}

func (m *mod) Start() {
	m.Stk.RegisterFlusher(func() {
		m.Stk.CallSync(svc, nil) // ok: flusher runs on the executor
	})
}

func (m *mod) Stop() {}

// helper is inferred executor-context: unexported, and its only call
// site is HandleRequest.
func (m *mod) helper() {
	m.Stk.CallSync(svc, nil) // ok: inferred via propagation
}

// scheduled closures run on the executor.
func okScheduled(st *kernel.Stack) {
	st.Do(func() {
		st.CallSync(svc, nil) // ok: literal passed to Stack.Do
	})
}

func badPlainCall(st *kernel.Stack) {
	st.CallSync(svc, nil) // want `executoronly: CallSync is executor-only`
}

func badGoroutine(st *kernel.Stack) {
	st.Do(func() {
		go st.SetPeers(nil, nil) // want `executoronly: SetPeers is executor-only .* launched on a new goroutine`
	})
}

func suppressedStartup(st *kernel.Stack) {
	//dpulint:ignore executoronly fixture demonstrates single-goroutine startup before the executor runs
	st.SetPeers(nil, nil)
}

// batchEvent carries a handler function inside an indication value, the
// way transport modules hand receive callbacks upward.
type batchEvent struct {
	handler func()
}

// okIndicateBatch: handler values reached through the indication slice
// passed to IndicateBatch are dispatched from the drain loop, so
// batchHandler below is executor context.
func okIndicateBatch(st *kernel.Stack, m *mod) {
	st.IndicateBatch(svc, []kernel.Indication{
		batchEvent{handler: m.batchHandler},
		batchEvent{handler: func() {
			st.CallSync(svc, nil) // ok: literal inside an IndicateBatch slice
		}},
	})
}

func (m *mod) batchHandler() {
	m.Stk.CallSync(svc, nil) // ok: scheduled via IndicateBatch
}

// newExecutor mirrors the shape of the kernel's executor constructor:
// its function arguments run only on the drain loop — the stack's
// executor goroutine — so they are executor context by axiom.
func newExecutor(run func(), flush func()) {
	_ = run
	_ = flush
}

func okExecutorConstructor(st *kernel.Stack) {
	newExecutor(func() {
		st.CallSync(svc, nil) // ok: task runner handed to newExecutor
	}, func() {
		st.SetPeers(nil, nil) // ok: flusher handed to newExecutor
	})
}
