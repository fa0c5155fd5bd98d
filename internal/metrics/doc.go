// Package metrics is the stack's lightweight observability layer: a
// process-wide registry of named counters and gauges.
//
// Modules expose high-frequency events (drops, retransmissions,
// decisions, deliveries) as registered Counters instead of per-event
// log lines, and instantaneous measurements (smoothed round-trip
// times, consensus latency) as Gauges. Both are cheap — one atomic
// word — and safe for concurrent use from every stack in the process.
// Snapshots (Counters, Gauges) feed the benchmark harness's per-layer
// report (benchmark/) and the adaptation engine in internal/policy,
// which derives windowed rates from counter deltas between samples.
// The full name registry is documented in docs/OPERATIONS.md.
//
// The registry is process-wide by design: a multi-process deployment
// has one registry per OS process (per node), while an in-process
// simulation aggregates all its stacks into one registry — the right
// granularity for a controller deciding a group-wide protocol switch.
package metrics
