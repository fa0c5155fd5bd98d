package main

import (
	"slices"
	"testing"

	"repro/internal/scenario"
)

func names(scs []*scenario.Scenario) []string {
	var out []string
	for _, sc := range scs {
		out = append(out, sc.Name)
	}
	return out
}

func TestResolveScenarios(t *testing.T) {
	corpus, err := scenario.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	const file = "file:../../scenarios/crash-restart.dpu.yaml"
	for arg, want := range map[string][]string{
		"all":                names(corpus),
		"loss-ramp":          {"loss-ramp"},
		file:                 {"crash-restart"},
		"loss-ramp, " + file: {"loss-ramp", "crash-restart"},
	} {
		scs, err := resolveScenarios(arg)
		if err != nil {
			t.Fatalf("%q: %v", arg, err)
		}
		if got := names(scs); !slices.Equal(got, want) {
			t.Errorf("%q resolved %v, want %v", arg, got, want)
		}
	}
	for _, bad := range []string{"no-such-scenario", "file:no/such.dpu.yaml", ","} {
		if _, err := resolveScenarios(bad); err == nil {
			t.Errorf("%q resolved without an error", bad)
		}
	}
}
