package main

// Workload and metric definitions. BENCHMARK.json at the repository root
// lists the same metric names, units and directions; the self-test checks
// that the two stay in step.

// metricDef is one reported metric. What each one measures, and which
// end-to-end metric each per-layer one should move on which workload, is
// tabled in METRICS.md.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics an operator or tenant sees, printed by untraced
// runs. The two "share of bad outcomes" metrics are reported as
// their complements (served_share = 1 − failed_share, deadline_met_share =
// 1 − deadline_miss_share) so that no end-to-end metric reads 0 on a
// healthy run; the raw failure counts are still printed per phase.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "windows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "observe_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "observe_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "plan_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "plan_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "served_share", Unit: "share", Better: "higher"},
	{Name: "energy_over_optimal", Unit: "ratio", Better: "lower"},
	{Name: "deadline_met_share", Unit: "share", Better: "higher"},
	{Name: "calibrate_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// perLayer are the traced run's metrics. The journal reports 0 on the
// workload without durability.
var perLayer = []metricDef{
	{Name: "service.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.batch_requests_mean", Unit: "count", Better: "higher"},
	{Name: "service.queue_rejects", Unit: "count", Better: "lower"},
	{Name: "service.shed_share", Unit: "share", Better: "lower"},
	{Name: "service.seed_transfers", Unit: "count", Better: "higher"},
	{Name: "service.observe_server_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.plan_server_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "control.filter_window_us", Unit: "us", Better: "lower"},
	{Name: "control.validate_us", Unit: "us", Better: "lower"},
	{Name: "control.fit_window_ms", Unit: "ms", Better: "lower"},
	{Name: "core.fit_batch_ms", Unit: "ms", Better: "lower"},
	{Name: "core.fit_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "core.em_iterations", Unit: "count", Better: "lower"},
	{Name: "matrix.cholesky_ms", Unit: "ms", Better: "lower"},
	{Name: "matrix.cholesky_gflop", Unit: "GFLOP", Better: "lower"},
	{Name: "matrix.syrk_ms", Unit: "ms", Better: "lower"},
	{Name: "matrix.syrk_gflop", Unit: "GFLOP", Better: "lower"},
	{Name: "persist.append_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.append_bytes", Unit: "B", Better: "lower"},
	{Name: "pareto.planner_build_us", Unit: "us", Better: "lower"},
	{Name: "pareto.minimize_us", Unit: "us", Better: "lower"},
	{Name: "pareto.hull_points", Unit: "count", Better: "lower"},
	{Name: "go.alloc_bytes_per_window", Unit: "B", Better: "lower"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "ladder.observe_sum_ms", Unit: "ms", Better: "lower"},
	{Name: "ladder.observe_residual_ms", Unit: "ms", Better: "lower"},
	{Name: "ladder.control_self_ms", Unit: "ms", Better: "lower"},
	{Name: "ladder.core_self_ms", Unit: "ms", Better: "lower"},
	{Name: "ladder.persist_self_ms", Unit: "ms", Better: "lower"},
	{Name: "ladder.pareto_self_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}
