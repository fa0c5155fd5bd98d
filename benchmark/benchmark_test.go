package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileIsNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {100, 100}, {1, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %v, want it", got)
	}
}

// The expected quartiles are what Python's statistics.quantiles(v, n=4)
// prints for the same lists.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 38},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.v)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5", got)
	}
}

func TestCondenseTakesTheBestWindowAndPoolsThinTails(t *testing.T) {
	mk := func(count int, lat ...float64) window { return window{count: count, latMS: lat} }
	// Three windows of two samples each; the second was stalled by the host.
	ws := condense([]window{mk(2, 1, 3), mk(1, 40, 50), mk(2, 2, 2)}, 1, 2)
	if got := highest(ws.perSec); got != 2 {
		t.Errorf("best rate %v, want 2", got)
	}
	if got := lowest(ws.p50); got != 1 {
		t.Errorf("best p50 %v, want 1 (nearest rank of {1,3})", got)
	}
	if ws.pooled99 || len(ws.p99) != 3 || lowest(ws.p99) != 2 {
		t.Errorf("per-window p99 = %v pooled=%v, want three values, the best 2", ws.p99, ws.pooled99)
	}
	if got := median(ws.p50); got != 2 {
		t.Errorf("window-median p50 %v, want 2: one stalled window moves one sample of it", got)
	}
	// With a floor of three samples a window the windows are too thin
	// for a p99 each, and the six latencies are pooled.
	ws = condense([]window{mk(2, 1, 3), mk(1, 40, 50), mk(2, 2, 2)}, 1, 3)
	if !ws.pooled99 || len(ws.p99) != 1 || ws.p99[0] != 50 {
		t.Errorf("pooled p99 = %v pooled=%v, want the one value 50", ws.p99, ws.pooled99)
	}
}

func TestSwitchStatsReportTheBestGroup(t *testing.T) {
	group := func(ms ...float64) []switchSample {
		var ss []switchSample
		for _, v := range ms {
			ss = append(ss, switchSample{start: 0, end: int64(v * 1e6)})
		}
		return ss
	}
	disturbed := group(9, 9, 9, 9, 9, 9, 9, 9, 9, 9)
	quiet := group(2, 2, 2, 2, 2, 5, 5, 5, 5, 30) // its p90 is 5; its p100 would be 30
	p50, p90 := switchStats(disturbed, quiet)
	if p50.V != 2 || p90.V != 5 {
		t.Errorf("best group p50, p90 = %v, %v, want 2, 5", p50.V, p90.V)
	}
	if p50.Spread == 0 {
		t.Errorf("two groups that differ must show a spread")
	}
	if one, _ := switchStats(nil, disturbed[:3]); one.V != 9 || one.Spread != 0 {
		t.Errorf("an empty group does not count; got %+v, want 9 with no spread", one)
	}
	if none, _ := switchStats(); none.V != 0 {
		t.Errorf("no switches: %v, want 0", none.V)
	}
}

// TestOpenLoopChargesAStallToTheMessagesThatWereDue drives the schedule
// with a synthetic clock that stops for 300 ms: every message that came
// due in the gap must still be sent, each timed from its own due instant
// (coordinated omission would time them from the late send instead).
func TestOpenLoopChargesAStallToTheMessagesThatWereDue(t *testing.T) {
	const rate, stallAt, stall = 1000.0, int64(time.Second), int64(300 * time.Millisecond)
	sch := schedule{rate: rate}
	var late lateness
	var sent []due
	var sentAt []int64
	stalled := false
	for now := int64(0); now < 2*int64(time.Second); {
		d, next, ok := sch.next(now)
		if !ok {
			now = next // the generator sleeps until the next message is due
			if !stalled && now >= stallAt {
				now += stall // …and the host takes the CPU away for 300 ms
				stalled = true
			}
			continue
		}
		late.add(now - d.at)
		sent, sentAt = append(sent, d), append(sentAt, now)
	}
	if want := int(2 * rate); len(sent) != want {
		t.Fatalf("sent %d messages in two seconds at %v/s, want %d: the schedule must not skip", len(sent), rate, want)
	}
	for i, d := range sent {
		if want := int64(float64(i) / rate * 1e9); d.at != want {
			t.Fatalf("message %d due at %d, want %d", i, d.at, want)
		}
	}
	if late.maxNS != stall {
		t.Errorf("worst lateness %d ns, want the %d ns stall", late.maxNS, stall)
	}
	// The messages due during the stall all leave when it ends, and their
	// lateness falls linearly from 300 ms to zero.
	behind := 0
	for i, d := range sent {
		if sentAt[i]-d.at > int64(lateThreshold) {
			behind++
		}
	}
	if want := int(rate*float64(stall)/1e9) - int(rate*float64(lateThreshold)/1e9); behind < want-1 || behind > want+1 {
		t.Errorf("%d messages left more than %s late, want about %d", behind, lateThreshold, want)
	}
	if late.late != behind || late.invalid() != (float64(behind) > lateShareInvalid*float64(len(sent))) {
		t.Errorf("lateness account %+v disagrees with %d late sends of %d", late, behind, len(sent))
	}
}

func TestScheduleInterleavesBurstsAndSignalsTheirEnd(t *testing.T) {
	sch := schedule{rate: 100, burstEvery: 50 * time.Millisecond, burstLen: 3}
	var kinds []string
	for now := int64(0); now <= int64(60*time.Millisecond); {
		d, next, ok := sch.next(now)
		if !ok {
			now = next
			continue
		}
		switch {
		case d.lastOf:
			kinds = append(kinds, "B!")
		case d.burst:
			kinds = append(kinds, "B")
		default:
			kinds = append(kinds, "s")
		}
		if d.burst && d.at != int64(50*time.Millisecond) {
			t.Errorf("burst message due at %d, want 50 ms", d.at)
		}
	}
	// Steady messages at 0..40 ms, the burst at 50 ms ahead of the steady
	// message due at the same instant, then 60 ms.
	if got, want := strings.Join(kinds, " "), "s s s s s B B B! s s"; got != want {
		t.Errorf("schedule emitted %q, want %q", got, want)
	}
}

// auditRig is an auditor over three stacks with n messages issued.
func auditRig(n uint64) (*auditor, func(id uint64) []byte) {
	const size = 64
	slots, issued := new(slotTable), new(atomic.Uint64)
	for id := uint64(0); id < n; id++ {
		slots.claim(id)
	}
	issued.Store(n)
	buf := newPayloadBuffers(1, 1, size)[0]
	return newAuditor(groupSize, size, slots, issued), func(id uint64) []byte {
		stampPayload(buf, id)
		return append([]byte(nil), buf...)
	}
}

func TestAuditorAcceptsIdenticalSequences(t *testing.T) {
	a, payload := auditRig(4)
	for stack := 0; stack < groupSize; stack++ {
		for _, id := range []uint64{2, 0, 3, 1} { // any order, as long as it is the same everywhere
			if _, ok := a.deliver(stack, payload(id), int64(10*(stack+1))); !ok {
				t.Fatalf("stack %d id %d rejected: %v", stack, id, a.firstErr)
			}
		}
	}
	if left := a.finish(4); left != 0 || a.failures != 0 {
		t.Fatalf("clean run: %d undelivered, %d failures: %v", left, a.failures, a.firstErr)
	}
	if got := a.completed.Load(); got != 4 {
		t.Errorf("completed %d, want 4", got)
	}
	if s := a.slots.at(0); s.done != 30 {
		t.Errorf("message 0 done at %d, want the last stack's instant 30", s.done)
	}
}

func TestAuditorRejectsBadSequences(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(a *auditor, payload func(uint64) []byte)
		want string
	}{
		{"duplicate", func(a *auditor, p func(uint64) []byte) {
			a.deliver(0, p(1), 1)
			a.deliver(0, p(1), 2)
		}, "twice"},
		{"never sent", func(a *auditor, p func(uint64) []byte) {
			a.deliver(0, p(9), 1)
		}, "never sent"},
		{"corrupted", func(a *auditor, p func(uint64) []byte) {
			b := p(1)
			b[len(b)-1] ^= 1
			a.deliver(0, b, 1)
		}, "checksum"},
		{"truncated", func(a *auditor, p func(uint64) []byte) {
			a.deliver(0, p(1)[:40], 1)
		}, "bytes"},
		{"foreign", func(a *auditor, p func(uint64) []byte) {
			a.deliver(0, []byte("not one of ours, whatever it is"), 1)
		}, "magic"},
		{"order differs", func(a *auditor, p func(uint64) []byte) {
			for stack := 0; stack < groupSize; stack++ {
				order := []uint64{0, 1, 2, 3}
				if stack == 2 {
					order = []uint64{0, 2, 1, 3}
				}
				for _, id := range order {
					a.deliver(stack, p(id), 1)
				}
			}
			a.finish(4)
		}, "sequence hash"},
		{"one stack misses one", func(a *auditor, p func(uint64) []byte) {
			for stack := 0; stack < groupSize; stack++ {
				for id := uint64(0); id < 4; id++ {
					if stack == 1 && id == 3 {
						continue
					}
					a.deliver(stack, p(id), 1)
				}
			}
			if left := a.finish(4); left != 1 {
				t.Errorf("finish reports %d undelivered, want 1", left)
			}
		}, "not delivered on every stack"},
	} {
		a, payload := auditRig(4)
		c.run(a, payload)
		if a.failures == 0 || a.firstErr == nil || !strings.Contains(a.firstErr.Error(), c.want) {
			t.Errorf("%s: failures=%d err=%v, want an error mentioning %q", c.name, a.failures, a.firstErr, c.want)
		}
	}
}

func TestWindowsBucketByCompletionAndChargeTheUndelivered(t *testing.T) {
	slots := new(slotTable)
	set := func(id uint64, t0, done int64) { s := slots.claim(id); s.t0, s.done = t0, done }
	sec := int64(time.Second)
	set(0, 0, sec/2)           // before the interval
	set(1, sec, sec+sec/10)    // window 1, 100 ms
	set(2, sec+1, 2*sec+sec/5) // completes in window 2
	set(3, 2*sec+5, 0)         // never delivered: counts in window 2 at the deadline
	set(4, 3*sec, 3*sec+1)     // beyond the interval
	ws := windowsOf(slots, 5, sec, 3*sec, sec)
	if len(ws) != 2 {
		t.Fatalf("%d windows, want 2", len(ws))
	}
	if ws[0].count != 1 || len(ws[0].latMS) != 1 || !near(ws[0].latMS[0], 100) {
		t.Errorf("window 1 = %+v, want one message of 100 ms", ws[0])
	}
	if ws[1].count != 1 || len(ws[1].latMS) != 2 {
		t.Fatalf("window 2 = %+v, want one completion and two latencies", ws[1])
	}
	if got := math.Max(ws[1].latMS[0], ws[1].latMS[1]); !near(got, float64(drainDeadline)/1e6) {
		t.Errorf("the undelivered message entered at %v ms, want the drain deadline", got)
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []jsonMetric `json:"end_to_end"`
	PerLayer   []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestSchemaMatchesBenchmarkJSON keeps the tables of this package and
// BENCHMARK.json in step, name for name, in both directions.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the tables say %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the table %q / %q", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: name or why outside the contract's limits", w.name)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%d %s metrics in BENCHMARK.json, %d in the table", len(got), kind, len(want))
			return
		}
		seen := map[string]bool{}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s] %s, the table %s [%s] %s", kind, i, g.Name, g.Unit, g.Better, m.name, m.unit, m.better)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != m.bound || m.bound <= 0 || m.bound > 0.25)) {
				t.Errorf("%s metric %s: bound %v against %v in the table", kind, m.name, g.Bound, m.bound)
			}
			if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) || seen[m.name] {
				t.Errorf("%s metric %q [%s]: name or unit outside the contract's limits, or used twice", kind, m.name, m.unit)
			}
			seen[m.name] = true
		}
	}
	check("end-to-end", b.EndToEnd, endToEnd, true)
	check("per-layer", b.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(perLayer), len(endToEnd))
	}
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better")
	}
}

// TestSmokeEveryWorkload pushes 200 messages and two switches through
// each workload, count-based, and checks what no clock can change: the
// audit passes, nothing failed, and the run prints exactly the metric
// names the schema lists. The ladder and the harness probe are run the
// same way, shortened.
func TestSmokeEveryWorkload(t *testing.T) {
	known := map[string]bool{}
	for _, m := range perLayer {
		known[m.name] = true
	}
	for i := range workloads {
		spec := &workloads[i]
		t.Run(spec.name, func(t *testing.T) {
			res, err := runWorkload(spec, defaultSeed, smokePlan)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status == "failed" || res.Failed != 0 {
				t.Fatalf("status %s, %d of %d operations failed: %v", res.Status, res.Failed, res.Attempted, res.Notes)
			}
			want := int(smokePlan.messages) + smokePlan.switches
			if spec.fabric == fabricVirtual {
				want *= vtReplays
			}
			if res.Attempted != want {
				t.Errorf("attempted %d operations, want %d", res.Attempted, want)
			}
			for _, m := range endToEnd {
				if _, ok := res.EndToEnd[m.name]; !ok {
					t.Errorf("end-to-end metric %s is not reported", m.name)
				}
			}
			if len(res.EndToEnd) != len(endToEnd) {
				t.Errorf("%d end-to-end metrics reported, the schema lists %d", len(res.EndToEnd), len(endToEnd))
			}
			for name := range res.PerLayer {
				if !known[name] {
					t.Errorf("per-layer metric %s is reported but not in the schema", name)
				}
			}
			if got := res.PerLayer["core.deliveries_per_msg"]; spec.fabric == fabricVirtual && got.V != groupSize {
				t.Errorf("core.deliveries_per_msg = %v, want %d", got.V, groupSize)
			}
		})
	}
}

// TestTracedRunReportsEveryPerLayerMetric runs the workload that carries
// the ladder, traced, for the shortest interval that has both halves,
// then the harness probe and the ladder cut to a few hundred messages.
// It asserts names and counts only.
func TestTracedRunReportsEveryPerLayerMetric(t *testing.T) {
	pl := timedPlan(2*discardWindows+2, true, "")
	pl.setups = 1
	res, err := runWall(findWorkload(ladderWorkload), defaultSeed, pl)
	if err == nil {
		err = harnessCapacity(res, 500)
	}
	if err == nil {
		err = runLadder(res, 100, 400)
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == "failed" {
		t.Fatalf("audit failed: %v", res.Notes)
	}
	for _, m := range perLayer {
		if _, ok := res.PerLayer[m.name]; !ok {
			t.Errorf("per-layer metric %s is not reported", m.name)
		}
	}
	if len(res.PerLayer) != len(perLayer) {
		t.Errorf("%d per-layer metrics reported, the schema lists %d", len(res.PerLayer), len(perLayer))
	}
	// The counters are read while messages are in flight, so the ratio is
	// exact only to the few messages that straddle the two readings.
	if got := res.PerLayer["core.deliveries_per_msg"].V; math.Abs(got-groupSize) > 0.05 {
		t.Errorf("core.deliveries_per_msg = %v, want %d", got, groupSize)
	}
}

func TestCompareVerdicts(t *testing.T) {
	run := func(workload string, thr, spreadThr, p50 float64) *result {
		return &result{Workload: workload, Status: "ok", EndToEnd: map[string]value{
			"throughput_msgs_s": {V: thr, Unit: "msgs/s", Spread: spreadThr},
			"latency_p50_ms":    {V: p50, Unit: "ms", Spread: 0.01},
		}}
	}
	thr, p50 := endToEnd[1], endToEnd[2]
	if thr.name != "throughput_msgs_s" || p50.name != "latency_p50_ms" {
		t.Fatal("the end-to-end table changed order; fix this test's indices")
	}
	one := func(v, s float64) side { return side{values: []float64{v}, spread: s} }
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b side
		want string
	}{
		{"throughput down past the bound", thr, one(1000, 0.01), one(1000*(1-thr.bound-0.02), 0.01), "REGRESSION"},
		{"throughput down inside the bound", thr, one(1000, 0.01), one(1000*(1-thr.bound/2), 0.01), "unchanged"},
		{"throughput up past the bound", thr, one(1000, 0.01), one(1000*(1+thr.bound+0.02), 0.01), "improved"},
		{"latency up past the bound", p50, one(2, 0.01), one(2*(1+p50.bound+0.02), 0.01), "REGRESSION"},
		{"latency down past the bound", p50, one(2, 0.01), one(2*(1-p50.bound-0.02), 0.01), "improved"},
		{"own spread wider than the bound", thr, one(1000, thr.bound+0.1), one(700, 0.01), "unresolved"},
		{"every run of b beats every run of a", p50,
			side{values: []float64{2.0, 2.4, 1.9, 2.6}}, side{values: []float64{1.8, 1.7, 1.85, 1.6}}, "improved"},
		{"runs overlap and scatter past the bound", p50,
			side{values: []float64{2.0, 3.0, 1.5, 2.6}}, side{values: []float64{1.8, 2.9, 3.5, 1.6}}, "unresolved"},
	} {
		if _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}

	var out bytes.Buffer
	a := report{Schema: reportSchema, Runs: []*result{run("udp-seq-small", 1000, 0.01, 2)}}
	b := report{Schema: reportSchema, Runs: []*result{run("udp-seq-small", 1000*(1-thr.bound-0.05), 0.01, 2)}}
	if code := compareTo(&out, "a", a, "b", b); code != 1 || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("a regression must exit 1 and say so; code %d, output:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareTo(&out, "a", a, "a", a); code != 0 || strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("a report against itself must exit 0; code %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "missing") {
		t.Errorf("workloads absent from both reports should read as missing:\n%s", out.String())
	}
}
