package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

const reportSchema = "dpu-benchmark/v1"

// report is what -out writes and -compare reads: every run of one
// invocation, untraced and traced.
type report struct {
	Schema string    `json:"schema"`
	Runs   []*result `json:"runs"`
}

func writeReport(path string, rep report) {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		fatal("writing %s: %v", path, err)
	}
}

func readReport(path string) (report, error) {
	var rep report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != reportSchema {
		return rep, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, reportSchema)
	}
	return rep, nil
}

// side is one report's evidence for one (workload, metric) pair: the
// values of its untraced runs and the widest spread any of them carries.
type side struct {
	values []float64
	spread float64
}

func (s side) median() float64 { return median(s.values) }

// ownSpread is how far the side's own samples scatter: across its runs
// when it has enough of them for quartiles to mean something, otherwise
// across the windows (or cycles, or switch groups) of the run it has.
func (s side) ownSpread() float64 {
	if len(s.values) >= 4 {
		return spread(s.values)
	}
	return s.spread
}

func gather(rep report, workload, metric string) (s side, ok bool) {
	for _, r := range rep.Runs {
		if r.Workload != workload || r.Traced {
			continue
		}
		if v, has := r.EndToEnd[metric]; has {
			s.values = append(s.values, v.V)
			s.spread = max(s.spread, v.Spread)
			ok = true
		}
	}
	return s, ok
}

// verdict applies a metric's bound to base a and candidate b.
func verdict(m metricSpec, a, b side) (worse float64, word string) {
	ma, mb := a.median(), b.median()
	if ma == 0 {
		return 0, "unresolved"
	}
	worse = (mb - ma) / ma
	if m.better == "higher" {
		worse = -worse
	}
	// Every run of b better than every run of a settles it whatever
	// the spread; it takes more than one run a side to say so.
	clean := len(a.values) > 1 && len(b.values) > 1
	for _, x := range a.values {
		for _, y := range b.values {
			if (m.better == "higher" && y <= x) || (m.better == "lower" && y >= x) {
				clean = false
			}
		}
	}
	switch {
	case clean:
		return worse, "improved"
	case max(a.ownSpread(), b.ownSpread()) > m.bound:
		return worse, "unresolved"
	case worse > m.bound:
		return worse, "REGRESSION"
	case worse < -m.bound:
		return worse, "improved"
	}
	return worse, "unchanged"
}

// compareReports prints one row per (workload, end-to-end metric) with
// both medians, their ratio and its base, and the verdict under the
// metric's bound. It returns the process's exit code: 1 when some pair
// regressed or an audit failed, 2 when a report cannot be read.
func compareReports(aPath, bPath string, w io.Writer) int {
	a, errA := readReport(aPath)
	b, errB := readReport(bPath)
	for _, err := range []error{errA, errB} {
		if err != nil {
			fmt.Fprintf(w, "compare: %v\n", err)
			return 2
		}
	}
	return compareTo(w, aPath, a, bPath, b)
}

func compareTo(w io.Writer, aName string, a report, bName string, b report) int {
	fmt.Fprintf(w, "base a = %s, candidate b = %s; ratio is b/a\n", aName, bName)
	fmt.Fprintf(w, "%-18s %-18s %14s %14s %8s %7s %8s  %s\n", "workload", "metric", "a", "b", "b/a", "bound", "spread", "verdict")
	code := 0
	for _, r := range append(append([]*result(nil), a.Runs...), b.Runs...) {
		if r.Status == "failed" {
			fmt.Fprintf(w, "%s (seed %d): audit failed, %d of %d operations\n", r.Workload, r.Seed, r.Failed, r.Attempted)
			code = 1
		}
	}
	for _, wl := range workloads {
		for _, m := range endToEnd {
			sa, okA := gather(a, wl.name, m.name)
			sb, okB := gather(b, wl.name, m.name)
			if !okA || !okB {
				fmt.Fprintf(w, "%-18s %-18s %14s %14s %8s %6.0f%% %8s  missing\n", wl.name, m.name, "-", "-", "-", 100*m.bound, "-")
				continue
			}
			_, word := verdict(m, sa, sb)
			if word == "REGRESSION" {
				code = 1
			}
			fmt.Fprintf(w, "%-18s %-18s %14.4f %14.4f %8.3f %6.0f%% %7.1f%%  %s\n", wl.name, m.name,
				sa.median(), sb.median(), ratio(sb.median(), sa.median()), 100*m.bound,
				100*max(sa.ownSpread(), sb.ownSpread()), word)
		}
	}
	return code
}
