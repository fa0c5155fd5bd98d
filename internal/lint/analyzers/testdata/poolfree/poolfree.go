// Package poolfree is the dpu-lint fixture for the poolfree analyzer:
// pooled wire.Writer ownership.
package poolfree

import "repro/internal/wire"

func leakOnEarlyReturn(cond bool) {
	w := wire.GetWriter(8)
	w.Byte(1)
	if cond {
		return // want `poolfree: .*may not reach Free`
	}
	w.Free()
}

func leakAtEnd() {
	w := wire.GetWriter(8)
	w.Byte(1)
} // want `poolfree: .*may not reach Free`

func okStraightLine() {
	w := wire.GetWriter(8)
	w.Byte(1)
	w.Free()
}

func okDeferred(cond bool) {
	w := wire.GetWriter(8)
	defer w.Free()
	if cond {
		return
	}
	w.Byte(2)
}

func okBranches(cond bool) {
	w := wire.GetWriter(8)
	if cond {
		w.Byte(1)
	} else {
		w.Byte(2)
	}
	w.Free()
}

func okLoop(n int) {
	w := wire.GetWriter(8)
	for i := 0; i < n; i++ {
		w.Byte(byte(i))
	}
	w.Free()
}

type holder struct{ w *wire.Writer }

func escapeToField(h *holder) {
	w := wire.GetWriter(8)
	h.w = w // want `poolfree: .*leaves the function`
}

func escapeToClosure() func() {
	w := wire.GetWriter(8)
	return func() { w.Free() } // want `poolfree: .*captured by a function literal`
}

func suppressedTransfer(h *holder) {
	w := wire.GetWriter(8)
	//dpulint:ignore poolfree fixture demonstrates a documented ownership transfer
	h.w = w
}

// A Body is kept by reference after the call that hands it over; a Data
// is copied during it.
type send struct{ Data, Body []byte }

// endpoint's Enqueue keeps its body by reference; queue's copies.
type endpoint interface {
	Enqueue(to int, head, body []byte)
}
type queue interface{ Enqueue(to int, data []byte) }

func bodyFromPool(out func(send)) {
	w := wire.GetWriter(8)
	w.Byte(1)
	out(send{Data: w.Bytes(), Body: w.Bytes()}) // want `poolfree: .*passed as a Body`
	w.Free()
}

func bodyFromPoolThroughLocal(out func(send)) {
	w := wire.GetWriter(8)
	rest := w.Byte(1).Byte(2).Bytes()[1:]
	var s send
	s.Body = rest // want `poolfree: .*passed as a Body`
	out(s)
	w.Free()
}

func bodyFromPoolEnqueued(ep endpoint) {
	w := wire.GetWriter(8)
	w.Byte(1)
	ep.Enqueue(1, nil, w.Bytes()) // want `poolfree: .*passed as a Body`
	w.Free()
}

func okHeadFromPool(ep endpoint, q queue, out func(send), body []byte) {
	w := wire.GetWriter(8)
	w.Byte(1)
	out(send{Data: w.Bytes(), Body: body})
	ep.Enqueue(1, w.Bytes(), body)
	q.Enqueue(1, w.Bytes())
	w.Free()
}

func suppressedBody(out func(send)) {
	w := wire.GetWriter(8)
	//dpulint:ignore poolfree fixture: out is synchronous and copies the body before it returns
	out(send{Body: w.Bytes()})
	w.Free()
}
