package metrics

import (
	"sync"
	"testing"
)

func TestCountersRegisterOnceAndAccumulate(t *testing.T) {
	a := NewCounter("test.metrics.counter_a")
	b := NewCounter("test.metrics.counter_a")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
	a.Add(3)
	b.Add(2)
	if got := a.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
	if a.Name() != "test.metrics.counter_a" {
		t.Fatalf("Name = %q", a.Name())
	}
	snap := Counters()
	if snap["test.metrics.counter_a"] != 5 {
		t.Fatalf("snapshot = %v, want counter_a=5", snap)
	}
}

func TestGaugeSetObserveAndRegistry(t *testing.T) {
	g := NewGauge("test.metrics.gauge_a")
	if g != NewGauge("test.metrics.gauge_a") {
		t.Fatal("same name must return the same gauge")
	}
	g.Set(100)
	if got := g.Value(); got != 100 {
		t.Fatalf("Value = %d, want 100", got)
	}
	// EWMA: first sample on a zero gauge is adopted as-is, later
	// samples move 1/8 of the gap.
	g.Set(0)
	g.Observe(800)
	if got := g.Value(); got != 800 {
		t.Fatalf("first Observe = %d, want 800", got)
	}
	g.Observe(0)
	if got := g.Value(); got != 700 {
		t.Fatalf("EWMA after 800,0 = %d, want 700", got)
	}
	if snap := Gauges(); snap["test.metrics.gauge_a"] != 700 {
		t.Fatalf("snapshot = %v, want gauge_a=700", snap)
	}
	if g.Name() != "test.metrics.gauge_a" {
		t.Fatalf("Name = %q", g.Name())
	}
}

// TestRegistryConcurrentRegisterIncrementSnapshot hammers the
// process-wide registry from many goroutines — registering, adding,
// observing and snapshotting concurrently — and then verifies no
// increment was lost. Run under -race (CI does) this is the registry's
// data-race regression test.
func TestRegistryConcurrentRegisterIncrementSnapshot(t *testing.T) {
	const (
		workers = 8
		rounds  = 2000
	)
	names := []string{
		"test.metrics.race_a", "test.metrics.race_b",
		"test.metrics.race_c", "test.metrics.race_d",
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				name := names[(w+i)%len(names)]
				NewCounter(name).Add(1)
				NewGauge(name + ".gauge").Observe(int64(i))
				if i%64 == 0 {
					_ = Counters()
					_ = Gauges()
				}
			}
		}(w)
	}
	wg.Wait()
	snap := Counters()
	var total uint64
	for _, name := range names {
		total += snap[name]
	}
	if want := uint64(workers * rounds); total != want {
		t.Fatalf("lost increments: %d counted, want %d", total, want)
	}
	for _, name := range names {
		if NewGauge(name+".gauge").Value() == 0 {
			t.Fatalf("gauge %s.gauge never observed", name)
		}
	}
}
