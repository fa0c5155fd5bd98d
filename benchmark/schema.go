package main

// ladderRungs names the cuts of the ladder, bottom to top; each reports
// ns_per_msg, allocs_per_msg and wire_bytes_per_msg.
var ladderRungs = []string{
	"harness", "wire", "kernel", "transport", "udp", "rp2p", "rbcast", "consensus",
	"abcast_ct", "abcast_seq", "abcast_token", "core", "core_batched", "dpu", "dpu_n1",
}

// perLayer lists the metrics of single layers, reported by a traced run.
// They carry no bound. A workload a metric does not apply to reports it
// as 0 (README.md lists which).
var perLayer = func() []metricSpec {
	m := []metricSpec{
		// Demoted from the end-to-end metrics: on sim-switch-storm a tenth
		// of the switches, give or take, fall in a slow mode four times the
		// median, so the 90th percentile jumps between the two modes from
		// run to run (README.md, Departures).
		{name: "switch_ms_p90", unit: "ms", better: "lower"},
		{name: "span.dpu_broadcast_us_p50", unit: "us", better: "lower"},
		{name: "span.dpu_broadcast_us_p99", unit: "us", better: "lower"},
		{name: "span.order_us_p50", unit: "us", better: "lower"},
		{name: "span.order_us_p99", unit: "us", better: "lower"},
		{name: "span.core_deliver_us_p50", unit: "us", better: "lower"},
		{name: "span.core_deliver_us_p99", unit: "us", better: "lower"},
		{name: "span.dpu_pump_us_p50", unit: "us", better: "lower"},
		{name: "span.dpu_pump_us_p99", unit: "us", better: "lower"},
		{name: "span.switch_request_to_first_ms_p50", unit: "ms", better: "lower"},
		{name: "span.switch_spread_ms_p50", unit: "ms", better: "lower"},
		{name: "span.switch_api_tail_ms_p50", unit: "ms", better: "lower"},

		{name: "transport.datagrams_per_msg", unit: "count", better: "lower"},
		{name: "transport.bytes_per_msg", unit: "B", better: "lower"},
		{name: "transport.syscalls_per_msg", unit: "count", better: "lower"},
		{name: "transport.stream_fragments_per_msg", unit: "count", better: "lower"},
		{name: "transport.send_errs", unit: "count", better: "lower"},
		{name: "transport.stream_reconnects", unit: "count", better: "lower"},
		{name: "wire.frames_rejected", unit: "count", better: "lower"},
		{name: "udp.recv_per_msg", unit: "count", better: "lower"},
		{name: "udp.recv_bytes_per_msg", unit: "B", better: "lower"},
		{name: "kernel.tasks_per_msg", unit: "count", better: "lower"},
		{name: "rp2p.packets_per_msg", unit: "count", better: "lower"},
		{name: "rp2p.retransmit_ratio", unit: "ratio", better: "lower"},
		{name: "rp2p.ack_rtt_us", unit: "us", better: "lower"},
		{name: "rbcast.records_per_msg", unit: "count", better: "lower"},
		{name: "rbcast.relay_ratio", unit: "ratio", better: "lower"},
		{name: "rbcast.buffer_drops", unit: "count", better: "lower"},
		{name: "abcast.msgs_per_decision", unit: "count", better: "higher"},
		{name: "abcast.consensus_latency_us", unit: "us", better: "lower"},
		{name: "abcast.decbuf_drops", unit: "count", better: "lower"},
		{name: "core.deliveries_per_msg", unit: "count", better: "lower"},
		{name: "core.reissued_per_switch", unit: "count", better: "lower"},
		{name: "fd.suspect_events", unit: "count", better: "lower"},
		{name: "process.cpu_us_per_msg", unit: "us", better: "lower"},
		{name: "process.allocs_per_msg", unit: "count", better: "lower"},
		{name: "process.alloc_bytes_per_msg", unit: "B", better: "lower"},
		{name: "process.gc_pause_ms", unit: "ms", better: "lower"},
		{name: "process.rss_peak_mb", unit: "MB", better: "lower"},
		{name: "harness.generator_late_ms_max", unit: "ms", better: "lower"},
		{name: "harness.capacity_msgs_s", unit: "msgs/s", better: "higher"},
		{name: "harness.tracing_overhead_pct", unit: "%", better: "lower"},
	}
	for _, rung := range ladderRungs {
		m = append(m,
			metricSpec{name: "ladder." + rung + ".ns_per_msg", unit: "ns", better: "lower"},
			metricSpec{name: "ladder." + rung + ".allocs_per_msg", unit: "count", better: "lower"},
			metricSpec{name: "ladder." + rung + ".wire_bytes_per_msg", unit: "B", better: "lower"})
	}
	return append(m, metricSpec{name: "ladder.repl_overhead_pct", unit: "%", better: "lower"})
}()

func perLayerNames() []string {
	names := make([]string, len(perLayer))
	for i, m := range perLayer {
		names[i] = m.name
	}
	return names
}

func perLayerUnit(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}
