package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/dpu"
	"repro/internal/metrics"
)

// value is one reported figure with the spread of the samples behind
// it (interquartile distance over median; see README.md).
type value struct {
	V      float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"`
}

// result is everything one run of one workload reports.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Traced    bool             `json:"traced"`
	Fabric    string           `json:"fabric"`
	Status    string           `json:"status"` // ok, invalid, contaminated or failed
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Notes     []string         `json:"notes,omitempty"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	Diag      map[string]value `json:"diagnostics"`
	Windows   *windowSeries    `json:"windows,omitempty"`
}

// windowSeries is the raw material behind the windowed figures, kept in
// the -out report so that what the best window hides can be looked up.
type windowSeries struct {
	PerSec   []float64 `json:"msgs_per_s"`
	P50      []float64 `json:"latency_p50_ms"`
	P99      []float64 `json:"latency_p99_ms"`
	SwitchMS []float64 `json:"switch_ms,omitempty"`
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// downgrade moves the status away from ok; the first reason wins.
func (r *result) downgrade(status, format string, args ...any) {
	if r.Status == "ok" {
		r.Status = status
	}
	r.note(status+": "+format, args...)
}

// plan says how one run is to be carried out. The zero measured interval
// with a message count is the smoke run of the tests: count-based, so
// that nothing in it depends on the wall clock.
type plan struct {
	seconds   int    // measured interval, in windows
	traced    bool   // second half of the interval with the taps in
	spansPath string // where to dump the span rows of a traced run, if anywhere
	setups    int    // cold cycles behind setup_s
	messages  uint64 // smoke: the generator stops after this many; 0 = it runs on the clock
	switches  int    // smoke: switches made once the messages are out
}

func timedPlan(seconds int, traced bool, spansPath string) plan {
	return plan{seconds: seconds, traced: traced, spansPath: spansPath, setups: setupCount}
}

var smokePlan = plan{setups: 1, messages: 200, switches: 2}

// switchSample is one ChangeProtocolAll call.
type switchSample struct {
	start, end int64 // ns since the run's epoch
	epoch      uint64
	err        error
}

// wallRun is one wall-clock workload run in flight.
type wallRun struct {
	spec    *workloadSpec
	seed    int64
	senders int

	cl    *cluster
	dch   [groupSize]<-chan dpu.Delivery    // the stacks' delivery streams; nil where there is no stack
	sch   [groupSize]<-chan dpu.SwitchEvent // and their switch streams
	epoch time.Time
	ctx   context.Context

	slots  slotTable
	issued atomic.Uint64
	aud    *auditor
	stop   atomic.Bool // tells the generator to finish
	light  atomic.Bool // closed loop: keep to tailOutstanding incomplete messages (the switch tail)
	limit  uint64      // the generator stops after this many messages; 0 = it runs until stop
	late   lateness    // generator-owned until it exits
	sendFn func(stack int, payload []byte) error

	switchCh chan int64 // storm: burst index whose switch is due
	switchMu sync.Mutex
	switches []switchSample

	// Collector-owned until it exits.
	collectorDone chan struct{}
	reissued      int
	switchEvents  int

	trace atomic.Pointer[tracer] // set once the taps are in
}

func (r *wallRun) now() int64 { return int64(time.Since(r.epoch)) }

// generateClosed is the closed-loop generator: it hands the senders a
// message each in turn and blocks in Node.Broadcast whenever a sender's
// outstanding window is full.
func (r *wallRun) generateClosed() {
	n := r.senders
	bufs := newPayloadBuffers(r.seed, n, r.spec.payload)
	for id := uint64(0); !r.stop.Load() && (r.limit == 0 || id < r.limit); id++ {
		for r.light.Load() && id-r.aud.completed.Load() >= tailOutstanding && !r.stop.Load() {
			time.Sleep(20 * time.Microsecond)
		}
		s := int(id % uint64(n))
		sl := r.slots.claim(id)
		stampPayload(bufs[s], id)
		tr := r.trace.Load().row(id)
		now := r.now()
		sl.t0 = now
		r.issued.Store(id + 1)
		err := r.sendFn(s, bufs[s])
		if tr != nil {
			tr.call, tr.ret = now, r.now()
		}
		if err != nil && r.ctx.Err() != nil {
			return
		}
	}
}

// generateOpen is the open-loop generator: it follows the absolute
// schedule whatever the program does, catching up without skipping.
func (r *wallRun) generateOpen() {
	n := r.senders
	bufs := newPayloadBuffers(r.seed, n, r.spec.payload)
	rng := rand.New(rand.NewSource(r.seed ^ 0x5707))
	sch := schedule{rate: r.spec.rate, burstEvery: r.spec.switchEvery, burstLen: r.spec.burst}
	var steady uint64
	burstSender, burstOf := 0, int64(-1)
	for id := uint64(0); !r.stop.Load() && (r.limit == 0 || id < r.limit); {
		now := r.now()
		d, next, ok := sch.next(now)
		if !ok {
			time.Sleep(time.Duration(next - now))
			continue
		}
		s := int(steady % uint64(n))
		if d.burst {
			if d.burstIdx != burstOf {
				burstOf, burstSender = d.burstIdx, rng.Intn(n)
			}
			s = burstSender
		} else {
			steady++
		}
		sl := r.slots.claim(id)
		stampPayload(bufs[s], id)
		tr := r.trace.Load().row(id)
		sl.t0 = d.at
		r.late.add(now - d.at)
		r.issued.Store(id + 1)
		err := r.sendFn(s, bufs[s])
		if tr != nil {
			tr.call, tr.ret = now, r.now()
		}
		if err != nil && r.ctx.Err() != nil {
			return
		}
		if d.lastOf {
			select {
			case r.switchCh <- d.burstIdx:
			default: // the switcher is more than a buffer behind; the switch is skipped and shows as fewer switches
			}
		}
		id++
	}
}

// doSwitch times one ChangeProtocolAll call.
func (r *wallRun) doSwitch(protocol string) {
	s := switchSample{start: r.now()}
	ev, err := r.cl.ChangeProtocolAll(r.ctx, protocol)
	s.end, s.epoch, s.err = r.now(), ev.Epoch, err
	r.switchMu.Lock()
	r.switches = append(r.switches, s)
	r.switchMu.Unlock()
}

// collect is the collector goroutine: it drains the three subscriptions
// in bursts without blocking and parks on all of them only when idle.
func (r *wallRun) collect() {
	dch, sch := r.dch, r.sch
	onSwitch := func(ev dpu.SwitchEvent) {
		r.reissued += ev.Reissued
		r.switchEvents++
	}
	for {
		progressed := false
		for i := range dch {
		burst:
			for k := 0; k < 512; k++ {
				select {
				case d := <-dch[i]:
					r.onDelivery(i, d)
					progressed = true
				default:
					break burst
				}
			}
			select {
			case ev := <-sch[i]:
				onSwitch(ev)
				progressed = true
			default:
			}
		}
		if progressed {
			continue
		}
		select {
		case d := <-dch[0]:
			r.onDelivery(0, d)
		case d := <-dch[1]:
			r.onDelivery(1, d)
		case d := <-dch[2]:
			r.onDelivery(2, d)
		case ev := <-sch[0]:
			onSwitch(ev)
		case ev := <-sch[1]:
			onSwitch(ev)
		case ev := <-sch[2]:
			onSwitch(ev)
		case <-r.collectorDone:
			return
		}
	}
}

func (r *wallRun) onDelivery(stack int, d dpu.Delivery) {
	now := r.now()
	if id, ok := r.aud.deliver(stack, d.Data, now); ok {
		if tr := r.trace.Load().row(id); tr != nil {
			tr.sub[stack] = now
		}
	}
}

// sleepUntil parks the orchestrating goroutine until the given offset
// into the run.
func (r *wallRun) sleepUntil(at int64) {
	if d := at - r.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

func newResult(spec *workloadSpec, seed int64, pl plan) *result {
	return &result{Workload: spec.name, Seed: seed, Seconds: pl.seconds, Traced: pl.traced,
		Fabric: spec.fabric.String(), Status: "ok",
		EndToEnd: map[string]value{}, PerLayer: map[string]value{}, Diag: map[string]value{}}
}

// setupCycles runs n cold cycles and returns their wall times in
// seconds. The cycles are cold for the cluster, not for the process:
// with warm set one more cycle is run first and left out, because a
// process's first sockets, goroutines and heap growth cost twice what
// the later ones do and would split the samples into two clusters.
func setupCycles(spec *workloadSpec, seed int64, n int, warm bool) ([]float64, error) {
	var s []float64
	for i := 0; i < n; i++ {
		if warm && i == 0 {
			if _, err := setupCycle(spec, groupSize, seed-1); err != nil {
				return nil, err
			}
		}
		d, err := setupCycle(spec, groupSize, seed+int64(i))
		if err != nil {
			return nil, err
		}
		s = append(s, d.Seconds())
	}
	return s, nil
}

// setupValue condenses the cycles run before and after the measured
// part of a run into setup_s: the median of each half, and of the two
// the lower; the spread is that of the two medians. The halves are half
// a minute apart, so one slow stretch of the host (README.md,
// Steadiness) spoils at most one of them.
func setupValue(before, after []float64) value {
	if len(after) == 0 {
		return value{median(before), "s", spread(before)}
	}
	halves := []float64{median(before), median(after)}
	return value{lowest(halves), "s", spread(halves)}
}

// interval is what the orchestrating goroutine noted down while the
// measured interval ran: its bounds in ns since the run's epoch and the
// counter snapshots at the ends of the stretches that are reported.
type interval struct {
	start          int64 // of window 0
	from, to       int64 // the untraced stretch: windows [first, last)
	tapFrom, tapTo int64 // the traced stretch, when there is one
	before, after  snapshot
	tapBefore      snapshot
	tapAfter       snapshot
	gauges         []map[string]int64
}

// measure lets the load run for the plan's seconds, a window at a time:
// gauges are sampled at window boundaries and the counters at the ends of
// the stretch that is reported. A traced run measures its first half
// untraced and its second half with the taps in, so that the two halves
// give the tracing overhead.
func (r *wallRun) measure(pl plan) (*interval, error) {
	win := int64(windowLen)
	iv := &interval{start: r.now(), before: r.snapshot()}
	first, last, tapAt := discardWindows, pl.seconds, -1
	if pl.traced {
		tapAt = pl.seconds / 2
		last = tapAt
	}
	for w := 0; w <= pl.seconds; w++ {
		r.sleepUntil(iv.start + int64(w)*win)
		switch w {
		case first:
			iv.before = r.snapshot()
		case last:
			iv.after = r.snapshot()
		}
		switch {
		case w == tapAt:
			t, err := installTaps(r)
			if err != nil {
				return nil, err
			}
			r.trace.Store(t)
		case pl.traced && w == tapAt+1:
			iv.tapBefore = r.snapshot()
		case pl.traced && w == pl.seconds:
			iv.tapAfter = r.snapshot()
		}
		if w > first && w <= last {
			iv.gauges = append(iv.gauges, metrics.Gauges())
		}
	}
	iv.from, iv.to = iv.start+int64(first)*win, iv.start+int64(last)*win
	if pl.seconds == 0 {
		iv.after = iv.before
	}
	if pl.traced {
		iv.tapFrom, iv.tapTo = iv.start+int64(tapAt+1)*win, iv.start+int64(pl.seconds)*win
	}
	return iv, nil
}

// switchTail makes n replacements of the protocol by itself, tailGap
// apart, with the closed loop throttled to tailOutstanding messages in
// flight: the switch is timed on its own, not behind a saturated queue
// (sim-switch-storm times it under load).
func (r *wallRun) switchTail(n int) {
	r.light.Store(true)
	for i := 0; i < n; i++ {
		r.doSwitch(r.spec.protocol)
		time.Sleep(r.spec.tailGap)
	}
	r.light.Store(false)
}

// runWall executes one wall-clock workload: half the cold setup cycles,
// then one cluster carrying half the switch tail, the measured interval,
// the other half of the tail and the drain, then the other setup cycles;
// everything is audited before anything is reported.
func runWall(spec *workloadSpec, seed int64, pl plan) (*result, error) {
	res := newResult(spec, seed, pl)
	setupBefore, err := setupCycles(spec, seed, (pl.setups+1)/2, pl.messages == 0)
	if err != nil {
		return nil, err
	}

	cl, err := newCluster(spec, groupSize, seed, nil)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	subs, err := cl.subscribe(dpu.DropOldest)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(pl.seconds)*time.Second+2*time.Minute)
	defer cancel()
	r := &wallRun{spec: spec, seed: seed, senders: groupSize, cl: cl, ctx: ctx, limit: pl.messages,
		switchCh: make(chan int64, 64), collectorDone: make(chan struct{})}
	for i, s := range subs {
		r.dch[i], r.sch[i] = s.Deliveries(), s.Switches()
	}
	r.aud = newAuditor(groupSize, spec.payload, &r.slots, &r.issued)
	r.sendFn = func(stack int, payload []byte) error { return cl.nodes[stack].Broadcast(ctx, payload) }

	var collector, generator, switcher sync.WaitGroup
	collector.Add(1)
	go func() { defer collector.Done(); r.collect() }()
	// A storm's switcher is a third goroutine, so that a
	// ChangeProtocolAll in progress never holds the generator back; the
	// generator tells it when a burst has gone out.
	if spec.burst > 0 {
		switcher.Add(1)
		go func() {
			defer switcher.Done()
			for idx := range r.switchCh {
				r.doSwitch(spec.cycle[idx%int64(len(spec.cycle))])
			}
		}()
	}
	r.epoch = time.Now()
	r.light.Store(spec.tailSwitches > 0 && pl.messages == 0) // a closed loop starts in its first tail
	generator.Add(1)
	go func() {
		defer generator.Done()
		if spec.rate > 0 {
			r.generateOpen()
		} else {
			r.generateClosed()
		}
	}()

	var iv *interval
	if pl.messages > 0 {
		// The smoke run is count-based: the messages, then the switches.
		iv, err = r.measure(pl)
		generator.Wait()
		targets := append(slices.Clone(spec.cycle), spec.protocol)
		for i := 0; i < pl.switches && err == nil; i++ {
			r.doSwitch(targets[i%len(targets)])
		}
	} else {
		r.switchTail((spec.tailSwitches + 1) / 2)
		if iv, err = r.measure(pl); err == nil {
			r.switchTail(spec.tailSwitches / 2)
		}
	}
	r.stop.Store(true)
	generator.Wait()
	close(r.switchCh)
	switcher.Wait()
	if err != nil {
		close(r.collectorDone)
		collector.Wait()
		return nil, err
	}
	total := r.issued.Load()
	for deadline := time.Now().Add(drainDeadline); r.aud.completed.Load() < total && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	end := r.snapshot()
	close(r.collectorDone)
	collector.Wait()
	var dropped uint64
	for _, s := range subs {
		dropped += s.Dropped()
	}
	cl.Close() // joins the executors: the taps' records are now stable

	setupAfter, err := setupCycles(spec, seed+int64(len(setupBefore)), pl.setups/2, false)
	if err != nil {
		return nil, err
	}
	res.EndToEnd["setup_s"] = setupValue(setupBefore, setupAfter)

	r.audit(res, total, dropped, end.counters["fd.suspect_events"]-iv.before.counters["fd.suspect_events"])
	r.report(res, iv, total, pl)
	if t := r.trace.Load(); t != nil && pl.spansPath != "" {
		if err := t.dumpSpans(pl.spansPath, total); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// audit settles, before any number is computed, which operations failed
// and whether the run counts.
func (r *wallRun) audit(res *result, total, dropped, suspicions uint64) {
	undelivered := r.aud.finish(total)
	if dropped > 0 {
		r.aud.fail(fmt.Errorf("subscriptions dropped %d events", dropped))
	}
	failedSwitches := 0
	for _, s := range r.switches {
		if s.err != nil {
			failedSwitches++
			r.aud.fail(fmt.Errorf("switch failed: %w", s.err))
		}
	}
	res.Attempted = int(total) + len(r.switches)
	res.Failed = max(undelivered+failedSwitches, r.aud.failures)
	if r.aud.firstErr != nil {
		res.downgrade("failed", "audit: %v (%d failures)", r.aud.firstErr, r.aud.failures)
	}
	if r.late.invalid() {
		res.downgrade("invalid", "%d of %d sends left the generator more than %s late: the generator was the bottleneck",
			r.late.late, r.late.sends, lateThreshold)
	}
	if suspicions > 0 {
		res.downgrade("contaminated", "%d failure-detector suspicions in a no-fault run", suspicions)
	}
}

// report computes every figure of an audited run.
func (r *wallRun) report(res *result, iv *interval, total uint64, pl plan) {
	win := int64(windowLen)
	ws := condense(windowsOf(&r.slots, total, iv.from, iv.to, win), windowLen.Seconds(), minWindowSamples)
	// An open loop's best window is the one that catches up after a
	// stall; its throughput is the rate it keeps, the median window.
	thr := highest(ws.perSec)
	if r.spec.rate > 0 {
		thr = median(ws.perSec)
	}
	res.EndToEnd["throughput_msgs_s"] = value{thr, "msgs/s", spread(ws.perSec)}
	res.EndToEnd["latency_p50_ms"] = value{lowest(ws.p50), "ms", spread(ws.p50)}
	res.EndToEnd["latency_p99_ms"] = value{lowest(ws.p99), "ms", spread(ws.p99)}
	res.Diag["window_median_throughput_msgs_s"] = value{V: median(ws.perSec), Unit: "msgs/s"}
	res.Diag["window_median_latency_p50_ms"] = value{V: median(ws.p50), Unit: "ms"}
	res.Diag["window_median_latency_p99_ms"] = value{V: median(ws.p99), Unit: "ms"}
	if ws.pooled99 {
		res.note("latency_p99_ms is the p99 of all %d latencies pooled: the windows hold fewer than %d samples", ws.samples, minWindowSamples)
	}
	res.Windows = &windowSeries{PerSec: ws.perSec, P50: ws.p50, P99: ws.p99}

	// A storm's switches are those of the untraced stretch, one group; a
	// closed loop's are its two tails, before and after the interval.
	var groups [2][]switchSample
	for _, s := range r.switches {
		g := 0
		switch {
		case s.err != nil:
			continue
		case r.spec.burst > 0:
			if s.start < iv.from || s.start >= iv.to {
				continue
			}
		case s.start >= iv.start:
			g = 1
		}
		groups[g] = append(groups[g], s)
		res.Windows.SwitchMS = append(res.Windows.SwitchMS, float64(s.end-s.start)/1e6)
	}
	res.EndToEnd["switch_ms_p50"], res.PerLayer["switch_ms_p90"] = switchStats(groups[:]...)
	diagnostics(res, &r.slots, total, iv.from, iv.to, len(res.Windows.SwitchMS))

	msgs := completedBetween(&r.slots, total, iv.before.at, iv.after.at)
	layerCounts(res, iv.before, iv.after, msgs, iv.gauges)
	res.PerLayer["core.reissued_per_switch"] = value{V: ratio(float64(r.reissued), float64(r.switchEvents)/groupSize), Unit: "count"}
	res.PerLayer["harness.generator_late_ms_max"] = value{V: float64(r.late.maxNS) / 1e6, Unit: "ms"}
	if t := r.trace.Load(); t != nil {
		tws := condense(windowsOf(&r.slots, total, iv.tapFrom, iv.tapTo, win), windowLen.Seconds(), minWindowSamples)
		res.PerLayer["harness.tracing_overhead_pct"] = value{V: 100 * (1 - ratio(highest(tws.perSec), highest(ws.perSec))), Unit: "%"}
		res.Diag["traced_latency_p50_ms"] = value{V: lowest(tws.p50), Unit: "ms"}
		t.report(res, r, total, iv.tapFrom, iv.tapTo, iv.tapBefore, iv.tapAfter, completedBetween(&r.slots, total, iv.tapBefore.at, iv.tapAfter.at))
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// completedBetween counts the messages every stack delivered in
// [from, to).
func completedBetween(slots *slotTable, total uint64, from, to int64) float64 {
	n := 0
	for id := uint64(0); id < total; id++ {
		if d := slots.at(id).done; d != 0 && d >= from && d < to {
			n++
		}
	}
	return float64(n)
}

// switchStats condenses switch durations into the two switch figures,
// the way windowStats treats latencies: each group of switches — a tail
// of a closed-loop run, or the whole storm — yields its p50 and its p90,
// and the run reports its best group.
func switchStats(groups ...[]switchSample) (p50, p90 value) {
	var g50, g90 []float64
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		ms := make([]float64, len(g))
		for i, s := range g {
			ms[i] = float64(s.end-s.start) / 1e6
		}
		sort.Float64s(ms)
		g50, g90 = append(g50, percentile(ms, 50)), append(g90, percentile(ms, 90))
	}
	return value{lowest(g50), "ms", spread(g50)}, value{lowest(g90), "ms", spread(g90)}
}

// diagnostics adds the raw, unwindowed figures README.md warns about:
// they move with every host stall and are printed for the curious only.
func diagnostics(res *result, slots *slotTable, total uint64, from, to int64, switches int) {
	var lat []float64
	for id := uint64(0); id < total; id++ {
		if s := slots.at(id); s.done >= from && s.done < to {
			lat = append(lat, float64(s.done-s.t0)/1e6)
		}
	}
	s := sortedCopy(lat)
	res.Diag["latency_samples"] = value{V: float64(len(s)), Unit: "count"}
	res.Diag["latency_global_p50_ms"] = value{V: percentile(s, 50), Unit: "ms"}
	res.Diag["latency_global_p99_ms"] = value{V: percentile(s, 99), Unit: "ms"}
	res.Diag["latency_global_p999_ms"] = value{V: percentile(s, 99.9), Unit: "ms"}
	res.Diag["latency_global_max_ms"] = value{V: percentile(s, 100), Unit: "ms"}
	res.Diag["switches"] = value{V: float64(switches), Unit: "count"}
}
