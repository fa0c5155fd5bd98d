// Command benchmark measures the Figure-4 stack end to end and layer by
// layer: five named workloads, six end-to-end metrics with regression
// bounds, a separate traced run for the per-layer figures and a ladder
// that cuts the stack at each layer. README.md is the manual.
//
//	bash benchmark/run.sh                                   every workload, untraced then traced
//	bash benchmark/run.sh --workload udp-seq-small --seed 7 --seconds 15 --trace 0
//	bash benchmark/run.sh -runs 4 -out a.json; bash benchmark/run.sh -runs 4 -out b.json
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// heapBallast stands in for the working set of the application that
// embeds the stack. Without it the collector paces itself on the
// harness's own slot table: a few MB at the start of a run, so dozens of
// collections a second, and a throughput that climbs for ten seconds as
// the table grows. It is never touched, so it costs no resident memory.
var heapBallast = make([]byte, ballastBytes)

func main() {
	var (
		workload = flag.String("workload", "", "run this workload alone (default: all of them, untraced then traced)")
		seed     = flag.Int64("seed", defaultSeed, "derives payload bytes, burst initiators and the simulated network's seed")
		seconds  = flag.Int("seconds", defaultSeconds, "length of the measured interval")
		trace    = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
		runs     = flag.Int("runs", 1, "without -workload: untraced runs of each workload, with seeds seed, seed+1, …; -compare wants 4 or more")
		out      = flag.String("out", "", "also write the full report as JSON to this file (input of -compare)")
		compare  = flag.Bool("compare", false, "compare two -out reports given as arguments; exit 1 on a regression")
		spans    = flag.String("spans", "", "with -trace 1: write the raw span rows as CSV to this file")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		os.Exit(compareReports(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if *seconds < discardWindows+2 {
		fatal("-seconds must be at least %d: the first %d windows are discarded", discardWindows+2, discardWindows)
	}
	fmt.Printf("benchmark: %d stacks in one process, one generator and one collector goroutine, %d MiB heap ballast\n",
		groupSize, len(heapBallast)>>20)

	if *workload != "" {
		spec := findWorkload(*workload)
		if spec == nil {
			fatal("unknown workload %q (known: %s)", *workload, strings.Join(workloadNames(), ", "))
		}
		res, err := runWorkload(spec, *seed, timedPlan(*seconds, *trace != 0, *spans))
		if err != nil {
			fatal("%s: %v", spec.name, err)
		}
		printResult(os.Stdout, res)
		if *out != "" {
			writeReport(*out, report{Schema: reportSchema, Runs: []*result{res}})
		}
		printDriverLine(res)
		if res.Status == "failed" {
			os.Exit(1)
		}
		return
	}

	rep := report{Schema: reportSchema}
	failed := false
	for i := range workloads {
		for k := 0; k <= *runs; k++ {
			// The untraced runs, one per seed, then the traced one.
			pl, s := timedPlan(*seconds, false, ""), *seed+int64(k)
			if k == *runs {
				pl, s = timedPlan(*seconds, true, ""), *seed
			}
			res, err := runWorkload(&workloads[i], s, pl)
			if err != nil {
				fatal("%s: %v", workloads[i].name, err)
			}
			printResult(os.Stdout, res)
			rep.Runs = append(rep.Runs, res)
			failed = failed || res.Status == "failed"
		}
	}
	if *out != "" {
		writeReport(*out, rep)
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runWorkload runs one workload once. A traced run also carries the
// ladder when the workload is the one the ladder shares its fabric,
// payload size and group with.
func runWorkload(spec *workloadSpec, seed int64, pl plan) (*result, error) {
	if err := confine(spec.oneCPU); err != nil {
		return nil, err
	}
	resetPeakRSS()
	if spec.fabric == fabricVirtual {
		return runVirtual(spec, seed, pl)
	}
	res, err := runWall(spec, seed, pl)
	if err != nil || !pl.traced || pl.messages > 0 {
		return res, err
	}
	if err := harnessCapacity(res, ladderWarmup+ladderMessages); err != nil {
		return nil, err
	}
	if spec.name == ladderWorkload {
		if err := runLadder(res, ladderWarmup, ladderMessages); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// printResult prints every metric of a run by name, with its unit.
func printResult(w *os.File, r *result) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s, seed %d, %d s) — %s\n", r.Workload, mode, r.Seed, r.Seconds, r.Status)
	fmt.Fprintf(w, "   traffic crossed: %s\n", r.Fabric)
	fmt.Fprintf(w, "   ops_attempted %d  ops_failed %d\n", r.Attempted, r.Failed)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	section := func(title string, m map[string]value, names []string) {
		if len(names) == 0 {
			return
		}
		fmt.Fprintf(w, "   %s\n", title)
		for _, name := range names {
			v := m[name]
			line := fmt.Sprintf("     %-40s %14.4f %s", name, v.V, v.Unit)
			if v.Spread != 0 {
				line += fmt.Sprintf("   (spread %.1f%%)", 100*v.Spread)
			}
			fmt.Fprintln(w, line)
		}
	}
	var names []string
	for _, m := range endToEnd {
		names = append(names, m.name)
	}
	title := "end to end"
	if r.Traced {
		title += " (of the untraced half; for comparison use an untraced run)"
	}
	section(title, r.EndToEnd, names)
	section("per layer", r.PerLayer, sortedNames(r.PerLayer))
	section("diagnostics (raw, unwindowed; not for comparison)", r.Diag, sortedNames(r.Diag))
}

// printDriverLine prints the one-line JSON object the driver reads: the
// end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func printDriverLine(r *result) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: r.Status != "failed", Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	if r.Traced {
		for _, name := range perLayerNames() {
			line.Metrics[name] = metric{r.PerLayer[name].V, perLayerUnit(name)}
		}
	} else {
		for _, m := range endToEnd {
			line.Metrics[m.name] = metric{r.EndToEnd[m.name].V, m.unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal("encoding the result: %v", err)
	}
	fmt.Println(string(b))
}
