package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"

	"repro/internal/abcast"
	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/kernel"
	"repro/internal/udp"
)

// Tracing is done from the benchmark's own files: the generator and the
// collector stamp the instants they see, and a tap module the benchmark
// installs on every stack (inside DoSync, as the kernel's contract asks)
// stamps the two layer boundaries in between. One row per message id
// ties the stamps together; rows stay in memory until the run has ended.
//
//	call ── dpu_broadcast ── ret ── order ── abcast.Deliver ── core_deliver ── core.Deliver ── dpu_pump ── Subscription
//
// The four spans of a message are taken on the stack that delivered it
// last (the one that set its latency), so they add up to that latency
// and each is its layer's self time.

// spanRow holds the instants of one message, in ns since the run's
// epoch; zero means not seen.
type spanRow struct {
	call, ret int64            // Node.Broadcast call and return (generator)
	abcast    [groupSize]int64 // abcast.Deliver seen by the stack's tap
	core      [groupSize]int64 // core.Deliver seen by the stack's tap
	sub       [groupSize]int64 // received on the stack's Subscription (collector)
}

type switchSeen struct {
	epoch uint64
	at    int64
}

type tracer struct {
	run    *wallRun
	from   uint64 // first id traced
	chunks [maxChunks]atomic.Pointer[[chunkSize]spanRow]

	udpRecv  [groupSize]atomic.Uint64
	udpBytes [groupSize]atomic.Uint64
	switched [groupSize][]switchSeen // executor-owned until the cluster is closed
}

// row returns the row of id, allocating its chunk on first use, or nil
// when tracing is off or started after id was sent.
func (t *tracer) row(id uint64) *spanRow {
	if t == nil || id < t.from {
		return nil
	}
	c := &t.chunks[id>>chunkBits]
	p := c.Load()
	if p == nil {
		// The generator, the taps and the collector may race to the first
		// row of a chunk; one allocation wins.
		c.CompareAndSwap(nil, new([chunkSize]spanRow))
		p = c.Load()
	}
	return &p[id&(chunkSize-1)]
}

// tap is the module installed on each stack.
type tap struct {
	kernel.Base
	t     *tracer
	stack int
	size  int // payload bytes, to find the payload at the tail of an abcast message
}

func (m *tap) HandleIndication(_ kernel.ServiceID, ind kernel.Indication) {
	switch v := ind.(type) {
	case udp.Recv:
		m.t.udpRecv[m.stack].Add(1)
		m.t.udpBytes[m.stack].Add(uint64(len(v.Data)))
	case abcast.Deliver:
		// The replacement layer's header precedes the payload; its
		// format is private, the payload's own length is not.
		if len(v.Data) < m.size {
			return
		}
		if id, ok := peekID(v.Data[len(v.Data)-m.size:]); ok {
			// A message reissued by a switch can be seen twice; the first
			// sighting is the one the replacement layer had to act on.
			if r := m.t.row(id); r != nil && r.abcast[m.stack] == 0 {
				r.abcast[m.stack] = m.t.run.now()
			}
		}
	case core.Deliver:
		if _, body, err := envelope.Unwrap(v.Data); err == nil {
			if id, ok := peekID(body); ok {
				if r := m.t.row(id); r != nil {
					r.core[m.stack] = m.t.run.now()
				}
			}
		}
	case core.Switched:
		m.t.switched[m.stack] = append(m.t.switched[m.stack], switchSeen{v.Sn, m.t.run.now()})
	}
}

// installTaps adds a tap to every stack of the run's cluster.
func installTaps(r *wallRun) (*tracer, error) {
	t := &tracer{run: r, from: r.issued.Load()}
	for i := range r.cl.nodes {
		st := r.cl.Stack(i)
		var addErr error
		err := st.DoSync(func() {
			m := &tap{Base: kernel.NewBase(st, "benchmark/tap"), t: t, stack: i, size: r.spec.payload}
			if addErr = st.AddModule(m); addErr != nil {
				return
			}
			st.Subscribe(udp.Service, m)
			st.Subscribe(abcast.ServiceImpl, m)
			st.Subscribe(core.Service, m)
		})
		if err == nil {
			err = addErr
		}
		if err != nil {
			return nil, fmt.Errorf("installing the tap on stack %d: %w", i, err)
		}
	}
	return t, nil
}

// spans returns the four spans of a message in microseconds, taken on
// the stack that delivered it last; ok is false when a stamp is missing.
func (r *spanRow) spans() (broadcast, order, coreDeliver, pump float64, ok bool) {
	last := 0
	for s := 1; s < groupSize; s++ {
		if r.sub[s] > r.sub[last] {
			last = s
		}
	}
	if r.call == 0 || r.ret == 0 || r.abcast[last] == 0 || r.core[last] == 0 || r.sub[last] == 0 {
		return 0, 0, 0, 0, false
	}
	us := func(from, to int64) float64 {
		if to < from {
			return 0 // the tap saw the delivery before Broadcast returned to the generator
		}
		return float64(to-from) / 1e3
	}
	return us(r.call, r.ret), us(r.ret, r.abcast[last]), us(r.abcast[last], r.core[last]), us(r.core[last], r.sub[last]), true
}

// report condenses the rows of the messages that completed in [from, to)
// into the span metrics, and the taps' counters into the udp counts.
func (t *tracer) report(res *result, r *wallRun, total uint64, from, to int64, before, after snapshot, msgs float64) {
	var spans [4][]float64
	for id := t.from; id < total; id++ {
		s := r.slots.at(id)
		if s.done < from || s.done >= to {
			continue
		}
		b, o, c, p, ok := t.row(id).spans()
		if !ok {
			continue
		}
		for i, v := range [...]float64{b, o, c, p} {
			spans[i] = append(spans[i], v)
		}
	}
	sum := 0.0
	for i, name := range []string{"dpu_broadcast", "order", "core_deliver", "dpu_pump"} {
		s := sortedCopy(spans[i])
		res.PerLayer["span."+name+"_us_p50"] = value{V: percentile(s, 50), Unit: "us"}
		res.PerLayer["span."+name+"_us_p99"] = value{V: percentile(s, 99), Unit: "us"}
		sum += percentile(s, 50)
	}
	res.Diag["span_samples"] = value{V: float64(len(spans[0])), Unit: "count"}
	res.Diag["span_p50_sum_ms"] = value{V: sum / 1e3, Unit: "ms"}

	res.PerLayer["udp.recv_per_msg"] = value{V: ratio(float64(after.tapRecv-before.tapRecv), msgs), Unit: "count"}
	res.PerLayer["udp.recv_bytes_per_msg"] = value{V: ratio(float64(after.tapBytes-before.tapBytes), msgs), Unit: "B"}

	// Switch timelines: the taps' core.Switched sightings per epoch
	// against the ChangeProtocolAll call that asked for it.
	var toFirst, gap, tail []float64
	for _, sw := range r.switches {
		if sw.err != nil {
			continue
		}
		first, last, seen := int64(0), int64(0), 0
		for s := range t.switched {
			for _, e := range t.switched[s] {
				if e.epoch != sw.epoch {
					continue
				}
				if seen == 0 || e.at < first {
					first = e.at
				}
				if e.at > last {
					last = e.at
				}
				seen++
			}
		}
		if seen == groupSize {
			toFirst = append(toFirst, float64(first-sw.start)/1e6)
			gap = append(gap, float64(last-first)/1e6)
			tail = append(tail, float64(sw.end-last)/1e6)
		}
	}
	res.PerLayer["span.switch_request_to_first_ms_p50"] = value{V: median(toFirst), Unit: "ms"}
	res.PerLayer["span.switch_spread_ms_p50"] = value{V: median(gap), Unit: "ms"}
	res.PerLayer["span.switch_api_tail_ms_p50"] = value{V: median(tail), Unit: "ms"}
}

// dumpSpans writes the traced rows as CSV, for inspection by hand.
func (t *tracer) dumpSpans(path string, total uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,call,ret,abcast0,abcast1,abcast2,core0,core1,core2,sub0,sub1,sub2")
	for id := t.from; id < total; id++ {
		r := t.row(id)
		fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n", id, r.call, r.ret,
			r.abcast[0], r.abcast[1], r.abcast[2], r.core[0], r.core[1], r.core[2], r.sub[0], r.sub[1], r.sub[2])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
