package main

// metricDef names one reported metric. Every workload reports every
// end-to-end metric in a timed run and every per-layer metric in a traced
// run (0 where the workload does not exercise the layer).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// workloads are the benchmark's workloads, in BENCHMARK.json's order.
var workloads = []string{"suite", "batch", "serve"}

// endToEnd are the numbers a user of dvsim sees, taken with tracing off.
// work_per_s counts each workload's own unit of work: simulated hours on
// suite, batch passes on batch, and warm hits answered on serve.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"max_rss_mb", "MB", "lower"},
	{"work_per_s", "1/s", "higher"},
}

// perLayer are the traced run's numbers: the untraced pass's rate of each
// suite and batch phase, serve request latencies, host
// time per module, timed calls into each module's public functions, span
// self times, and exact work counts that act as behaviour checksums.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"suite.sim_h_per_s", "h/s", "higher"},
		{"batch.records_per_s", "1/s", "higher"},
		{"batch.lines_per_s", "1/s", "higher"},
		{"batch.forks_per_s", "1/s", "higher"},
		{"serve.hit_p50_ms", "ms", "lower"},
		{"serve.hit_p99_ms", "ms", "lower"},
		{"serve.miss_p50_ms", "ms", "lower"},
		{"serve.miss_p90_ms", "ms", "lower"},
		{"sim.schedule_pop_ns", "ns", "lower"},
		{"sim.handoff_ns", "ns", "lower"},
		{"sim.chan_ns", "ns", "lower"},
		{"serial.tx_us", "us", "lower"},
		{"battery.drain_ns", "ns", "lower"},
		{"telemetry.encode_ns_per_record", "ns", "lower"},
		{"core.record_ns_per_record", "ns", "lower"},
		{"core.run_overhead_us", "us", "lower"},
		{"manifest.expand_ms", "ms", "lower"},
		{"manifest.aggregate_ms", "ms", "lower"},
		{"sweep.efficiency", "ratio", "higher"},
		{"service.cache_get_us", "us", "lower"},
		{"service.cache_put_us", "us", "lower"},
		{"service.server_hit_ms", "ms", "lower"},
		{"service.server_miss_ms", "ms", "lower"},
		{"service.transport_ms", "ms", "lower"},
		{"service.hit_ratio", "ratio", "higher"},
		{"service.rejected", "count", "lower"},
		{"load.gen_late_p99_ms", "ms", "lower"},
		{"trace.overhead_pct", "%", "lower"},
		{"sim.events", "count", "lower"},
		{"node.frames", "count", "higher"},
		{"node.mode_transitions", "count", "lower"},
		{"serial.transfers", "count", "lower"},
		{"serial.kb", "KB", "lower"},
		{"serial.max_pending", "count", "lower"},
		{"telemetry.records", "count", "higher"},
		{"telemetry.bytes", "B", "lower"},
		{"manifest.lines", "count", "higher"},
		{"core.forks", "count", "higher"},
		{"service.hits", "count", "higher"},
		{"service.misses", "count", "lower"},
	}
	for _, l := range spanLayers {
		defs = append(defs, metricDef{"span." + l + ".self_s", "s", "lower"})
	}
	for _, prefix := range []string{"cpu.", "exp2.cpu.", "exp2D.cpu."} {
		for _, m := range cpuModules {
			defs = append(defs, metricDef{prefix + m, "%", "lower"})
		}
	}
	return defs
}()
