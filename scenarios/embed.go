// Package scenarios embeds the in-tree scenario corpus: the *.dpu.yaml
// timelines swept by `go test ./internal/scenario -run TestCorpus` and
// runnable individually with `dpu-sim -scenario <name>`; digests.txt
// holds the delivery digest each entry must produce at its committed
// seed. See docs/SCENARIOS.md for the DSL and for how to add a corpus
// entry.
package scenarios

import "embed"

// FS holds every corpus scenario file.
//
//go:embed *.dpu.yaml
var FS embed.FS
