package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/dpu"
	"repro/internal/audit"
)

// minimal is a tiny inline scenario used by the smoke, determinism and
// fuzz tests: one manual switch under light load, a few hundred virtual
// milliseconds.
const minimal = `
name: minimal
seed: 9
nodes: 3
initial: seq
workload:
  rate: 200
  payload: 24
phases:
  - name: warm
    duration: 300ms
  - name: switched
    duration: 500ms
    actions:
      - {at: 50ms, action: switch, to: ct}
    expect: {protocol: ct}
drain: 400ms
expect:
  final_protocol: ct
  switch_sequence: [ct]
`

func mustParse(t *testing.T, src string) *Scenario {
	t.Helper()
	sc, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestMinimalScenario(t *testing.T) {
	sc := mustParse(t, minimal)
	res, err := Run(sc, Options{Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Deliveries == 0 {
		t.Fatal("no deliveries recorded")
	}
	if len(res.Switches) != 1 || res.Switches[0].Protocol != "abcast/ct" {
		t.Fatalf("switches = %+v", res.Switches)
	}
}

// TestCorpusParses is the corpus gate: every scenarios/*.dpu.yaml file
// must parse and validate.
func TestCorpusParses(t *testing.T) {
	corpus, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range corpus {
		t.Logf("%-24s nodes=%-3d phases=%d seed=%d tags=%v", sc.Name, sc.Nodes, len(sc.Phases), sc.Seed, sc.Tags)
	}
}

// goldenDigests reads scenarios/digests.txt: the delivery digest each
// corpus entry produces at its committed seed.
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("scenarios/digests.txt:%d: want \"<name> <digest>\", got %q", i+1, line)
		}
		golden[f[0]] = f[1]
	}
	return golden
}

// TestCorpus executes every corpus scenario at its committed seed and
// checks its delivery digest against scenarios/digests.txt. Large-tagged
// entries are skipped under -race (they run in the plain pass and in
// TestLarge50).
func TestCorpus(t *testing.T) {
	corpus, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	golden := goldenDigests(t)
	inCorpus := map[string]bool{}
	for _, sc := range corpus {
		inCorpus[sc.Name] = true
	}
	for name := range golden {
		if !inCorpus[name] {
			t.Errorf("scenarios/digests.txt names %s, which is not in the corpus", name)
		}
	}
	for _, sc := range corpus {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			want, ok := golden[sc.Name]
			if !ok {
				t.Fatalf("%s has no golden digest in scenarios/digests.txt", sc.Name)
			}
			if raceEnabled && sc.HasTag("large") {
				t.Skipf("%s is large-tagged: skipped under -race", sc.Name)
			}
			if testing.Short() && sc.HasTag("large") {
				t.Skipf("%s is large-tagged: skipped under -short", sc.Name)
			}
			res, err := Run(sc, Options{Log: t.Logf})
			if err != nil {
				t.Fatalf("seed %d: %v\nreproduce: go test ./internal/scenario -run 'TestCorpus/%s'", sc.Seed, err, sc.Name)
			}
			t.Logf("%s: %d deliveries, %d switches, %d views, digest %016x, %s virtual in %s wall",
				sc.Name, res.Counts.Deliveries, res.Counts.Switches, res.Counts.Views,
				res.Digest, res.VirtualTime, res.WallTime.Round(time.Millisecond))
			if got := fmt.Sprintf("%016x", res.Digest); got != want {
				t.Errorf("%s: digest %s, golden %s (scenarios/digests.txt)", sc.Name, got, want)
			}
		})
	}
}

// TestParity pins the ported timelines to the protocol sequences the
// original wall-clock Go timelines converged to: the DSL port must
// demonstrate the same adaptation story, phase by phase.
func TestParity(t *testing.T) {
	if testing.Short() {
		t.Skip("parity runs three full adaptive scenarios")
	}
	want := map[string][]string{
		// Legacy scenarioDefs wants, in phase order ("" = free-running).
		"loss-ramp":      {"abcast/seq", "abcast/ct", "abcast/seq"},
		"latency-step":   {"abcast/ct", "abcast/seq", "abcast/ct"},
		"partition-flap": {"abcast/seq", "", "abcast/seq"},
	}
	for name, phases := range want {
		name, phases := name, phases
		t.Run(name, func(t *testing.T) {
			sc, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if len(sc.Phases) != len(phases) {
				t.Fatalf("corpus %s has %d phases, legacy timeline had %d", name, len(sc.Phases), len(phases))
			}
			res, err := Run(sc, Options{Log: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			for i, wantProto := range phases {
				if wantProto == "" {
					continue
				}
				if got := res.Phases[i].EndProtocol; got != wantProto {
					t.Errorf("phase %s converged to %s, legacy timeline converged to %s",
						res.Phases[i].Name, got, wantProto)
				}
			}
		})
	}
}

// TestDigestSensitivity pins the digest to the event streams: the same
// logs hash alike, a reordering does not, and the counts are per event.
func TestDigestSensitivity(t *testing.T) {
	logs := func() map[int][]dpu.Event {
		logs := map[int][]dpu.Event{}
		for stack := 0; stack < 3; stack++ {
			for seq := 0; seq < 4; seq++ {
				for origin := 0; origin < 3; origin++ {
					logs[stack] = append(logs[stack], dpu.Event{Kind: dpu.EventDelivery, Delivery: dpu.Delivery{
						Stack: stack, Origin: origin, Data: audit.Payload(origin, uint64(seq), 0), At: time.Unix(0, 0),
					}})
				}
			}
			logs[stack] = append(logs[stack], dpu.Event{Kind: dpu.EventSwitch, Switch: dpu.SwitchEvent{Epoch: 1, Protocol: "abcast/seq"}})
		}
		return logs
	}
	counts, a := digest(logs())
	if want := (Counts{Deliveries: 36, Switches: 3}); counts != want {
		t.Fatalf("counts = %+v, want %+v", counts, want)
	}
	if _, b := digest(logs()); a != b {
		t.Fatalf("identical logs digest differently: %016x vs %016x", a, b)
	}
	reordered := logs()
	reordered[2][4], reordered[2][5] = reordered[2][5], reordered[2][4]
	if _, c := digest(reordered); c == a {
		t.Fatal("reordered logs produced the same digest")
	}
}

// TestDeterminism is the reproducibility witness: the same scenario at
// the same seed must produce bit-identical event counts and
// the identical event-stream digest across two runs. crash-restart and
// corrupt-under-switch extend the witness over the fault-injection
// surface: restart joins, seeded corruption and checksum rejects are
// all part of the deterministic schedule.
func TestDeterminism(t *testing.T) {
	for _, name := range []string{"churn-during-switch", "crash-restart", "corrupt-under-switch"} {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			a, err := Run(sc, Options{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(sc, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if a.Counts != b.Counts {
				t.Fatalf("event counts diverge: %+v vs %+v", a.Counts, b.Counts)
			}
			if a.Digest != b.Digest {
				t.Fatalf("event digests diverge: %016x vs %016x (counts %+v)", a.Digest, b.Digest, a.Counts)
			}
			if a.RejectedFrames != b.RejectedFrames {
				t.Fatalf("rejected-frame counts diverge: %d vs %d", a.RejectedFrames, b.RejectedFrames)
			}
		})
	}
}

// TestSeedSweep runs the sweep scenarios across consecutive seeds. The
// default width keeps the test suite quick; CI raises it with
// DPU_SCENARIO_SWEEP_SEEDS. A failing seed is reported verbatim with
// the exact reproduction command.
func TestSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep runs full scenarios")
	}
	seeds := 3
	if s := os.Getenv("DPU_SCENARIO_SWEEP_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("DPU_SCENARIO_SWEEP_SEEDS=%q: want a positive integer", s)
		}
		seeds = n
	}
	names := []string{"minimal", "churn-during-switch", "crash-restart", "corrupt-under-switch"}
	if s := os.Getenv("DPU_SCENARIO_SWEEP"); s != "" {
		names = []string{s}
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			var sc *Scenario
			if name == "minimal" {
				sc = mustParse(t, minimal)
			} else {
				var err error
				sc, err = ByName(name)
				if err != nil {
					t.Fatal(err)
				}
			}
			for seed := int64(1); seed <= int64(seeds); seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
					res, err := Run(sc, Options{Seed: &seed})
					if err != nil {
						t.Fatalf("FAILING SEED %d for scenario %s: %v\nreproduce: DPU_SCENARIO_SWEEP=%s DPU_SCENARIO_SEED=%d go test ./internal/scenario -run 'TestSeedSweep/%s/seed-%d'",
							seed, sc.Name, err, sc.Name, seed, name, seed)
					}
					t.Logf("seed %d: digest %016x, %d deliveries", seed, res.Digest, res.Counts.Deliveries)
				})
			}
		})
	}
}

// TestLarge50 is the acceptance witness for scale: 50 nodes, membership
// churn, two protocol switches and a partition flap over 3.6 simulated
// seconds. The run is deterministic, so the witness is the schedule it
// covers — virtual time and event counts at the committed seed, which
// move only when the corpus digest does; wall time is host-dependent
// and only logged.
func TestLarge50(t *testing.T) {
	if raceEnabled {
		t.Skip("large-50 is skipped under -race")
	}
	if testing.Short() {
		t.Skip("large-50 runs a 50-node schedule")
	}
	sc, err := ByName("large-50")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, Options{Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if want := 3600 * time.Millisecond; res.VirtualTime != want {
		t.Errorf("large-50 covered %s of virtual time, want %s (phases + drain)", res.VirtualTime, want)
	}
	if want := (Counts{Deliveries: 7018, Switches: 200, Views: 101}); res.Counts != want {
		t.Errorf("large-50 counts = %+v, want %+v", res.Counts, want)
	}
	t.Logf("large-50: %d deliveries, %d switches, %d views over %s virtual in %s wall",
		res.Counts.Deliveries, res.Counts.Switches, res.Counts.Views, res.VirtualTime,
		res.WallTime.Round(time.Millisecond))
}

// TestSwitchToUnknownProtocolFailsRun bypasses the schema's name check
// to reach the driver's own: a switch the replacement layer refuses
// must fail the phase it was scheduled in, not vanish into the stack.
func TestSwitchToUnknownProtocolFailsRun(t *testing.T) {
	sc := mustParse(t, minimal)
	sc.Phases[1].Actions[0].To = "abcast/nope"
	sc.Phases[1].Expect.Protocol = ""
	_, err := Run(sc, Options{})
	if err == nil || !strings.Contains(err.Error(), "abcast/nope") {
		t.Fatalf("Run = %v, want a switch failure naming abcast/nope", err)
	}
}
