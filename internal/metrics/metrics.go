package metrics

import (
	"sync"
	"sync/atomic"
)

// Counter is a named, monotonically increasing counter. Modules use
// counters (instead of per-event log lines) to expose drop and overflow
// events that may fire millions of times under load.
type Counter struct {
	name string
	v    atomic.Uint64
}

// Add increments the counter.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Name returns the counter's registry name.
func (c *Counter) Name() string { return c.name }

var counterReg sync.Map // name -> *Counter

// NewCounter returns the process-wide counter registered under name,
// creating it on first use. Counters are cheap (one atomic) and safe
// for concurrent use; repeated calls with the same name return the same
// counter.
func NewCounter(name string) *Counter {
	if c, ok := counterReg.Load(name); ok {
		return c.(*Counter)
	}
	c, _ := counterReg.LoadOrStore(name, &Counter{name: name})
	return c.(*Counter)
}

// Counters returns a snapshot of every registered counter, keyed by
// name.
func Counters() map[string]uint64 {
	out := make(map[string]uint64)
	counterReg.Range(func(k, v any) bool {
		out[k.(string)] = v.(*Counter).Value()
		return true
	})
	return out
}

// Gauge is a named, instantaneous measurement: the latest value of a
// signal rather than an accumulating count. Modules either Set it to
// the newest reading or Observe samples into a smoothed average.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Name returns the gauge's registry name.
func (g *Gauge) Name() string { return g.name }

// Observe folds one sample into an exponentially weighted moving
// average (alpha = 1/8, the RFC 6298 SRTT coefficient): the gauge
// tracks the signal's recent level without a stale spike pinning it.
// The first sample (on a zero gauge) is adopted as-is.
func (g *Gauge) Observe(sample int64) {
	for {
		old := g.v.Load()
		next := sample
		if old != 0 {
			next = old + (sample-old)/8
		}
		if g.v.CompareAndSwap(old, next) {
			return
		}
	}
}

var gaugeReg sync.Map // name -> *Gauge

// NewGauge returns the process-wide gauge registered under name,
// creating it on first use. Repeated calls with the same name return
// the same gauge.
func NewGauge(name string) *Gauge {
	if g, ok := gaugeReg.Load(name); ok {
		return g.(*Gauge)
	}
	g, _ := gaugeReg.LoadOrStore(name, &Gauge{name: name})
	return g.(*Gauge)
}

// Gauges returns a snapshot of every registered gauge, keyed by name.
func Gauges() map[string]int64 {
	out := make(map[string]int64)
	gaugeReg.Range(func(k, v any) bool {
		out[k.(string)] = v.(*Gauge).Value()
		return true
	})
	return out
}
