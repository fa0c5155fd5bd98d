package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseYAMLShapes(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want any
	}{
		{"scalar-map", "a: 1\nb: two\n", map[string]any{"a": "1", "b": "two"}},
		{"nested-map", "a:\n  b: 1\n  c: 2\n", map[string]any{"a": map[string]any{"b": "1", "c": "2"}}},
		{"block-list", "xs:\n  - 1\n  - 2\n", map[string]any{"xs": []any{"1", "2"}}},
		{"list-of-maps", "xs:\n  - k: 1\n    l: 2\n  - k: 3\n", map[string]any{"xs": []any{
			map[string]any{"k": "1", "l": "2"}, map[string]any{"k": "3"}}}},
		{"flow-list", "xs: [a, b, c]\n", map[string]any{"xs": []any{"a", "b", "c"}}},
		{"flow-map", "x: {a: 1, b: 2}\n", map[string]any{"x": map[string]any{"a": "1", "b": "2"}}},
		{"flow-map-in-list", "xs:\n  - {a: 1}\n  - {a: 2}\n", map[string]any{"xs": []any{
			map[string]any{"a": "1"}, map[string]any{"a": "2"}}}},
		{"comments", "# header\na: 1 # trailing\nb: 2\n", map[string]any{"a": "1", "b": "2"}},
		{"quoted", `a: "x: y # not a comment"` + "\n", map[string]any{"a": "x: y # not a comment"}},
		{"empty-flow-list", "xs: []\n", map[string]any{"xs": []any{}}},
		{"blank-lines", "a: 1\n\n\nb: 2\n", map[string]any{"a": "1", "b": "2"}},
		{"single-quoted", "a: 'hash # inside'\n", map[string]any{"a": "hash # inside"}},
		{"colon-in-value", "a: w:3:14\n", map[string]any{"a": "w:3:14"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseYAML([]byte(tc.in))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("parsed %#v, want %#v", got, tc.want)
			}
		})
	}
}

func TestParseYAMLErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"tab-indent", "a:\n\tb: 1\n", "tab"},
		{"duplicate-key", "a: 1\na: 2\n", "duplicate"},
		{"bad-indent", "a:\n    b: 1\n   c: 2\n", "indent"},
		{"unterminated-quote", `a: "oops` + "\n", "quote"},
		{"unterminated-flow", "a: [1, 2\n", "flow"},
		{"list-map-mix", "a:\n  - 1\n  b: 2\n", ""},
		{"empty", "", "empty"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseYAML([]byte(tc.in))
			if err == nil {
				t.Fatalf("parse accepted %q", tc.in)
			}
			if tc.want != "" && !strings.Contains(strings.ToLower(err.Error()), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestSchemaDefaults(t *testing.T) {
	sc := mustParse(t, "name: d\nphases:\n  - name: p\n    duration: 100ms\n")
	if sc.Seed != 1 || sc.Nodes != 3 || sc.Initial != "abcast/ct" {
		t.Fatalf("defaults: seed=%d nodes=%d initial=%s", sc.Seed, sc.Nodes, sc.Initial)
	}
	if sc.Drain != 500*time.Millisecond {
		t.Fatalf("drain default = %s", sc.Drain)
	}
	if sc.Workload.Rate != 200 || sc.Workload.Payload != 32 || sc.Workload.Senders != 0 {
		t.Fatalf("workload defaults = %+v", sc.Workload)
	}
	if sc.Expect.MinViews != -1 || sc.Expect.MinSwitches != -1 || sc.Expect.MaxSwitches != -1 || sc.Expect.MinRejectedFrames != -1 {
		t.Fatalf("expect defaults = %+v", sc.Expect)
	}
}

func TestSchemaRejections(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"no-name", "nodes: 3\nphases:\n  - name: p\n    duration: 1s\n", "name"},
		{"no-phases", "name: x\n", "phase"},
		{"bad-protocol", "name: x\ninitial: paxos\nphases:\n  - name: p\n    duration: 1s\n", "protocol"},
		{"bad-action", "name: x\nphases:\n  - name: p\n    duration: 1s\n    actions:\n      - {at: 0ms, action: explode}\n", "action"},
		{"unknown-key", "name: x\nbogus: 1\nphases:\n  - name: p\n    duration: 1s\n", "bogus"},
		{"bare-duration", "name: x\nphases:\n  - name: p\n    duration: 100\n", "unit"},
		{"too-many-nodes", "name: x\nnodes: 4096\nphases:\n  - name: p\n    duration: 1s\n", "nodes"},
		{"add-node-without-membership", "name: x\nphases:\n  - name: p\n    duration: 1s\n    actions:\n      - {at: 0ms, action: add-node}\n", "membership"},
		{"evict-without-membership", "name: x\nphases:\n  - name: p\n    duration: 1s\n    actions:\n      - {at: 0ms, action: evict, node: 1}\n", "membership"},
		// Every check is always on: the retired `invariants:` selector
		// is an unknown key like any other.
		{"unknown-invariant", "name: x\ninvariants: [total-order]\nphases:\n  - name: p\n    duration: 1s\n", "unknown key \"invariants\""},
		{"switch-without-target", "name: x\nphases:\n  - name: p\n    duration: 1s\n    actions:\n      - {at: 0ms, action: switch}\n", "to"},
		{"restart-without-membership", "name: x\nphases:\n  - name: p\n    duration: 1s\n    actions:\n      - {at: 0ms, action: restart, node: 1}\n", "membership"},
		{"restart-without-node", "name: x\nmembership: true\nphases:\n  - name: p\n    duration: 1s\n    actions:\n      - {at: 0ms, action: restart}\n", "node"},
		{"corrupt-rate-out-of-range", "name: x\nphases:\n  - name: p\n    duration: 1s\n    actions:\n      - {at: 0ms, action: corrupt, rate: 1.5}\n", "rate"},
		{"reorder-rate-out-of-range", "name: x\nphases:\n  - name: p\n    duration: 1s\n    actions:\n      - {at: 0ms, action: reorder, rate: -0.1}\n", "rate"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.in))
			if err == nil {
				t.Fatal("schema accepted invalid scenario")
			}
			if !strings.Contains(strings.ToLower(err.Error()), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestSchemaRejectsInvariantsKey(t *testing.T) {
	// No scenario can switch a check off: whatever the retired
	// `invariants:` selector lists, even nothing, the file is rejected.
	for _, sel := range []string{
		"invariants: []\n",
		"invariants: [exactly-once]\n",
		"invariants:\n  - total-order\n  - no-gaps\n",
	} {
		_, err := Parse([]byte("name: x\n" + sel + "phases:\n  - name: p\n    duration: 1s\n"))
		if err == nil {
			t.Fatalf("schema accepted %q", sel)
		}
		if !strings.Contains(err.Error(), "unknown key \"invariants\"") {
			t.Fatalf("%q: error %q does not name the unknown invariants key", sel, err)
		}
	}
}

func TestSchemaProtocolAliases(t *testing.T) {
	for alias, want := range map[string]string{
		"ct": "abcast/ct", "seq": "abcast/seq", "sequencer": "abcast/seq",
		"token": "abcast/token", "abcast/ct": "abcast/ct",
	} {
		sc := mustParse(t, "name: x\ninitial: "+alias+"\nphases:\n  - name: p\n    duration: 1s\n")
		if sc.Initial != want {
			t.Fatalf("alias %q resolved to %q, want %q", alias, sc.Initial, want)
		}
	}
}

func TestSchemaFullDocument(t *testing.T) {
	sc := mustParse(t, `
name: full
seed: 77
nodes: 5
initial: seq
membership: true
auto_evict: true
grace: 250ms
tags: [large, nightly]
env:
  latency: 2ms
  jitter: 100us
  loss: 0.05
fd:
  interval: 50ms
  timeout: 250ms
adaptive:
  policy: loss-sensitive
  interval: 20ms
  confirm: 3
  cooldown: 150ms
workload:
  rate: 500
  senders: 2
  payload: 64
phases:
  - name: a
    duration: 1s
    env:
      loss: 0.2
    flap:
      a: 0
      b: 1
      period: 100ms
    actions:
      - {at: 10ms, action: switch, to: ct, node: 2}
      - {at: 20ms, action: partition, a: 1, b: 3}
      - {at: 30ms, action: set-loss, loss: 0.5}
    expect: {protocol: ct}
drain: 1s
expect:
  final_protocol: ct
  switch_sequence: [ct]
  min_switches: 1
  max_switches: 3
  min_views: 0
`)
	if sc.Seed != 77 || sc.Nodes != 5 || !sc.Membership || !sc.AutoEvict {
		t.Fatalf("top-level fields: %+v", sc)
	}
	if sc.Env.Loss == nil || *sc.Env.Loss != 0.05 || *sc.Env.Latency != 2*time.Millisecond {
		t.Fatalf("env: %+v", sc.Env)
	}
	if sc.Adaptive == nil || sc.Adaptive.Policy != "loss-sensitive" || sc.Adaptive.Confirm != 3 {
		t.Fatalf("adaptive: %+v", sc.Adaptive)
	}
	ph := sc.Phases[0]
	if ph.Flap == nil || ph.Flap.Period != 100*time.Millisecond {
		t.Fatalf("flap: %+v", ph.Flap)
	}
	if len(ph.Actions) != 3 || ph.Actions[0].To != "abcast/ct" || ph.Actions[0].Node != 2 {
		t.Fatalf("actions: %+v", ph.Actions)
	}
	if ph.Expect.Protocol != "abcast/ct" {
		t.Fatalf("phase expect: %+v", ph.Expect)
	}
	if sc.Expect.MinSwitches != 1 || sc.Expect.MaxSwitches != 3 || sc.Expect.MinViews != 0 {
		t.Fatalf("expect: %+v", sc.Expect)
	}
}
