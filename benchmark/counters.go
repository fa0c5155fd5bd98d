package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport"
)

// snapshot is the state of every counter the per-layer counts are
// differences of, taken at one instant of a run.
type snapshot struct {
	at       int64 // ns since the run's epoch
	counters map[string]uint64
	udp      transport.UDPStats
	tcp      transport.TCPStats
	tasks    uint64 // executor tasks accepted, over the stacks
	mallocs  uint64
	bytes    uint64
	gcPause  uint64 // ns
	cpu      time.Duration
	rssKB    int64
	tapRecv  uint64 // datagrams and bytes the udp taps saw
	tapBytes uint64
}

func (r *wallRun) snapshot() snapshot { return snapshotOf(r.cl, r.trace.Load(), r.now()) }

// snapshotOf reads every counter of a running cluster; t is its tracer,
// if the taps are in.
func snapshotOf(cl *cluster, t *tracer, at int64) snapshot {
	s := processSnapshot()
	s.at = at
	if cl.udp != nil {
		s.udp = cl.udp.Stats()
	}
	if cl.tcp != nil {
		s.tcp = cl.tcp.Stats()
	}
	for i := range cl.nodes {
		accepted, _ := cl.Stack(i).QueueState()
		s.tasks += accepted
	}
	if t != nil {
		for i := range t.udpRecv {
			s.tapRecv += t.udpRecv[i].Load()
			s.tapBytes += t.udpBytes[i].Load()
		}
	}
	return s
}

// processSnapshot reads the process-wide counters.
func processSnapshot() snapshot {
	var s snapshot
	s.counters = metrics.Counters()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.mallocs, s.bytes, s.gcPause = m.Mallocs, m.TotalAlloc, m.PauseTotalNs
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.rssKB = ru.Maxrss
	}
	if kb, ok := peakRSSKB(); ok {
		s.rssKB = kb
	}
	return s
}

// medianGauge condenses the per-window samples of one of the program's
// smoothed gauges.
func medianGauge(samples []map[string]int64, name string) float64 {
	var v []float64
	for _, s := range samples {
		v = append(v, float64(s[name]))
	}
	return median(v)
}

// layerCounts fills the per-layer counts from the difference of two
// snapshots, per message delivered everywhere between them.
func layerCounts(res *result, a, b snapshot, msgs float64, gauges []map[string]int64) {
	delta := func(name string) float64 { return float64(b.counters[name] - a.counters[name]) }
	per := func(x float64) float64 { return ratio(x, msgs) }
	set := func(name string, v float64, unit string) { res.PerLayer[name] = value{V: v, Unit: unit} }

	datagrams := float64(b.udp.Sent-a.udp.Sent) + float64(b.tcp.Sent-a.tcp.Sent)
	wire := float64(b.udp.Bytes-a.udp.Bytes) + float64(b.tcp.Bytes-a.tcp.Bytes)
	set("transport.datagrams_per_msg", per(datagrams), "count")
	set("transport.bytes_per_msg", per(wire), "B")
	set("transport.syscalls_per_msg", per(float64(b.udp.SendCalls-a.udp.SendCalls)+float64(b.udp.RecvCalls-a.udp.RecvCalls)), "count")
	set("transport.stream_fragments_per_msg", per(delta("transport.stream_fragments")), "count")
	set("transport.send_errs", float64(b.udp.SendErrs-a.udp.SendErrs)+float64(b.tcp.SendErrs-a.tcp.SendErrs), "count")
	set("transport.stream_reconnects", delta("transport.stream_reconnects"), "count")
	set("wire.frames_rejected", delta("wire.frames_rejected"), "count")
	set("kernel.tasks_per_msg", per(float64(b.tasks-a.tasks)), "count")
	set("rp2p.packets_per_msg", per(delta("rp2p.packets_sent")), "count")
	set("rp2p.retransmit_ratio", ratio(delta("rp2p.retransmits"), delta("rp2p.packets_sent")), "ratio")
	set("rp2p.ack_rtt_us", medianGauge(gauges, "rp2p.ack_rtt_us"), "us")
	set("rbcast.records_per_msg", per(delta("rbcast.records_received")), "count")
	set("rbcast.relay_ratio", ratio(delta("rbcast.records_relayed"), delta("rbcast.records_received")), "ratio")
	set("rbcast.buffer_drops", delta("rbcast.buffer_drops"), "count")
	// Every stack counts each decision it processes.
	set("abcast.msgs_per_decision", ratio(msgs*groupSize, delta("abcast.decisions")), "count")
	set("abcast.consensus_latency_us", medianGauge(gauges, "abcast.consensus_latency_us"), "us")
	set("abcast.decbuf_drops", delta("abcast.ct.decbuf_drops"), "count")
	set("core.deliveries_per_msg", per(delta("core.deliveries")), "count")
	set("fd.suspect_events", delta("fd.suspect_events"), "count")
	set("process.cpu_us_per_msg", per(float64((b.cpu - a.cpu).Microseconds())), "us")
	set("process.allocs_per_msg", per(float64(b.mallocs-a.mallocs)), "count")
	set("process.alloc_bytes_per_msg", per(float64(b.bytes-a.bytes)), "B")
	set("process.gc_pause_ms", float64(b.gcPause-a.gcPause)/1e6, "ms")
	set("process.rss_peak_mb", float64(b.rssKB)/1024, "MB")
}

// sortedNames returns the keys of a metric map in a stable order.
func sortedNames(m map[string]value) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
