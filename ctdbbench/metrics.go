package main

// metricSpec names one printed metric with its unit and direction, as
// BENCHMARK.json lists it.
type metricSpec struct {
	Name, Unit, Better string
}

// driverWorkloads are the workloads BENCHMARK.json lists. register
// runs too, but is left out there: its probe median is not steady while
// registration encodes its WAL record under the write lock (README).
var driverWorkloads = []string{"query", "stream"}

// endToEndMetrics are printed by every end-to-end run (-trace 0).
var endToEndMetrics = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"tail_ms", "ms", "lower"},
	{"probe_p50_ms", "ms", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"rss_mb", "MB", "lower"},
	{"disk_mb", "MB", "lower"},
	{"restart_ms", "ms", "lower"},
}

// layerMetrics are printed by every traced run (-trace 1).
var layerMetrics = []metricSpec{
	{"server.query_overhead_us", "us", "lower"},
	{"ltl.parse_us", "us", "lower"},
	{"ltl.canonicalize_us", "us", "lower"},
	{"qcache.hit_us", "us", "lower"},
	{"ltl2ba.query_translate_us", "us", "lower"},
	{"prefilter.candidates_us", "us", "lower"},
	{"prefilter.candidates", "count", "lower"},
	{"prefilter.precision", "ratio", "higher"},
	{"bisim.pick_us", "us", "lower"},
	{"bisim.state_ratio", "ratio", "lower"},
	{"permission.check_us", "us", "lower"},
	{"permission.steps", "count", "lower"},
	{"shard.scan_us", "us", "lower"},
	{"shard.skew", "ratio", "lower"},
	{"query.unattributed_us", "us", "lower"},
	{"paper.fig5_speedup", "ratio", "higher"},
	{"ltl2ba.translate_ms", "ms", "lower"},
	{"ltl2ba.states", "count", "lower"},
	{"bisim.precompute_ms", "ms", "lower"},
	{"bisim.subsets", "count", "lower"},
	{"bisim.distinct_share", "ratio", "lower"},
	{"prefilter.insert_us", "us", "lower"},
	{"wal.encode_ms", "ms", "lower"},
	{"wal.append_us", "us", "lower"},
	{"server.register_overhead_ms", "ms", "lower"},
	{"qcache.probe_hit_share", "ratio", "higher"},
	{"snapfmt.kb_per_contract", "KB", "lower"},
	{"store.open_ms", "ms", "lower"},
	{"register.unattributed_ms", "ms", "lower"},
	{"paper.precompute_insert_ratio", "ratio", "lower"},
	{"server.events_decode_us", "us", "lower"},
	{"stream.append_us", "us", "lower"},
	{"stream.journal_append_us", "us", "lower"},
	{"stream.step_ns_per_event", "ns", "lower"},
	{"stream.verdicts_per_kevent", "count", "lower"},
	{"stream.checkpoint_ms", "ms", "lower"},
	{"stream.recover_ms", "ms", "lower"},
	{"stream.unattributed_us", "us", "lower"},
	{"runtime.gc_cycles_per_kop", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.heap_mb", "MB", "lower"},
}
