package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/scenario"
)

// resolveScenarios expands the -scenario argument into parsed
// scenarios: "all" is the whole embedded corpus, "file:<path>" loads
// from disk, anything else is a corpus name; comma-separation mixes
// them.
func resolveScenarios(arg string) ([]*scenario.Scenario, error) {
	if arg == "all" {
		return scenario.Corpus()
	}
	var out []*scenario.Scenario
	for _, tok := range strings.Split(arg, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		var (
			sc  *scenario.Scenario
			err error
		)
		if path, ok := strings.CutPrefix(tok, "file:"); ok {
			sc, err = scenario.LoadFile(path)
		} else {
			sc, err = scenario.ByName(tok)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-scenario %q selects nothing", arg)
	}
	return out, nil
}

// runScenarios executes each scenario and narrates its phases. seed
// overrides the scenarios' committed seeds when non-nil (the -seed
// flag, only when set explicitly); transportOverride does the same for
// the fabric (the -transport flag): "sim" runs under virtual time,
// "udp"/"tcp" replay the timeline on the wall clock over real loopback
// sockets.
func runScenarios(scs []*scenario.Scenario, seed *int64, transportOverride string) error {
	for _, sc := range scs {
		policy := "manual"
		if sc.Adaptive != nil {
			policy = sc.Adaptive.Policy + " policy"
		}
		fmt.Printf("==> Scenario %s (%s, initial %s, %d nodes)", sc.Name, policy, sc.Initial, sc.Nodes)
		if transportOverride != "" {
			fmt.Printf(" over %s", transportOverride)
		}
		fmt.Println()
		res, err := scenario.Run(sc, scenario.Options{Seed: seed, Transport: transportOverride})
		if err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		for i, ph := range res.Phases {
			fmt.Printf("  phase %-12s %6s virtual  ->  %-12s (%d switches%s)\n",
				ph.Name, ph.End-ph.Start, ph.EndProtocol, ph.Switches, wantNote(sc.Phases[i].Expect.Protocol))
		}
		fmt.Printf("  %d deliveries, %d views, digest %016x — %s virtual in %s wall, invariants clean\n\n",
			res.Counts.Deliveries, res.Counts.Views, res.Digest,
			res.VirtualTime, res.WallTime.Round(time.Millisecond))
	}
	return nil
}

func wantNote(want string) string {
	if want == "" {
		return ""
	}
	return ", converged to " + want
}
