package main

// metricDef names one metric the benchmark prints. The lists here and
// the ones in BENCHMARK.json must agree; a test checks that they do.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the median it may worsen by
	On     owners  // per-layer only: the workloads whose traced pass measures it
}

// owners is a set of workloads. A per-layer metric is measured in the
// traced pass of the workloads that lean on its layer, and reads 0 in
// the others, which have to print every name.
type owners uint8

const (
	onPaper owners = 1 << iota
	onNet
	onScale
	onServe
	onGrids = onPaper | onNet | onScale
	onAll   = onGrids | onServe
)

// endToEndMetrics are what a user of the simulator waits for or pays,
// the same names on every workload. A "cell" is one experiment cell of
// a grid workload or one request of serve-mix. The bounds come from the
// spread measured between runs of one commit (README, Steadiness).
var endToEndMetrics = []metricDef{
	{Name: "cells_per_s", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "cpu_ms_per_cell", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "alloc_mb_per_cell", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "mallocs_per_cell", Unit: "count", Better: "lower", Bound: 0.02},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayerMetrics are the traced pass's output: probes of one layer's
// public functions, spans recorded around the calls into a layer, and
// counts the engine reports about itself.
var perLayerMetrics = []metricDef{
	// vc
	{Name: "vc.dense_merge_ns.p8", Unit: "ns", Better: "lower", On: onPaper},
	{Name: "vc.sparse_merge_ns.p256", Unit: "ns", Better: "lower", On: onScale},
	{Name: "vc.sparse_snapshot_ns.p256", Unit: "ns", Better: "lower", On: onScale},
	// mem
	{Name: "mem.twin_ns_per_page", Unit: "ns", Better: "lower", On: onPaper},
	{Name: "mem.diff_encode_ns_per_page", Unit: "ns", Better: "lower", On: onPaper},
	{Name: "mem.diff_apply_ns_per_page", Unit: "ns", Better: "lower", On: onPaper},
	{Name: "mem.twins_per_cell", Unit: "count", Better: "lower", On: onGrids},
	{Name: "mem.diffs_per_cell", Unit: "count", Better: "lower", On: onGrids},
	// lrc
	{Name: "lrc.publish_ns", Unit: "ns", Better: "lower", On: onPaper},
	{Name: "lrc.delta_ns.p8", Unit: "ns", Better: "lower", On: onPaper},
	{Name: "lrc.delta_devs_ns.p256", Unit: "ns", Better: "lower", On: onScale},
	{Name: "lrc.intervals_per_cell", Unit: "count", Better: "lower", On: onGrids},
	// aggregate
	{Name: "aggregate.rebuild_ns_per_page", Unit: "ns", Better: "lower", On: onPaper},
	// instrument
	{Name: "instrument.collect_ratio", Unit: "ratio", Better: "lower", On: onPaper},
	{Name: "instrument.useless_msg_share", Unit: "ratio", Better: "lower", On: onPaper},
	// netmodel / simnet
	{Name: "simnet.exchange_ns.ideal", Unit: "ns", Better: "lower", On: onNet},
	{Name: "simnet.exchange_ns.bus", Unit: "ns", Better: "lower", On: onNet},
	{Name: "simnet.exchange_ns.switch", Unit: "ns", Better: "lower", On: onNet},
	{Name: "simnet.msgs_per_cell", Unit: "count", Better: "lower", On: onGrids},
	{Name: "simnet.wire_kb_per_cell", Unit: "KB", Better: "lower", On: onGrids},
	// trace
	{Name: "trace.memsink_ns_per_event", Unit: "ns", Better: "lower", On: onNet},
	{Name: "trace.capture_ratio", Unit: "ratio", Better: "lower", On: onNet},
	{Name: "trace.derive_ns_per_event", Unit: "ns", Better: "lower", On: onNet},
	{Name: "trace.derive_share", Unit: "ratio", Better: "lower", On: onNet},
	{Name: "trace.events_per_cell", Unit: "count", Better: "lower", On: onNet},
	// tmk
	{Name: "tmk.newsystem_ms_per_cell", Unit: "ms", Better: "lower", On: onGrids},
	{Name: "tmk.run_ms_per_cell", Unit: "ms", Better: "lower", On: onGrids},
	{Name: "tmk.run_self_share", Unit: "ratio", Better: "higher", On: onGrids},
	{Name: "tmk.host_us_per_msg", Unit: "us", Better: "lower", On: onGrids},
	{Name: "tmk.access_ns", Unit: "ns", Better: "lower", On: onPaper},
	{Name: "tmk.fault_us", Unit: "us", Better: "lower", On: onPaper},
	{Name: "tmk.lock_handoff_us", Unit: "us", Better: "lower", On: onPaper},
	{Name: "tmk.barrier_us.p8.central", Unit: "us", Better: "lower", On: onPaper},
	{Name: "tmk.barrier_us.p256.tree", Unit: "us", Better: "lower", On: onScale},
	{Name: "tmk.faults_per_cell", Unit: "count", Better: "lower", On: onGrids},
	// apps
	{Name: "apps.make_ms_per_cell", Unit: "ms", Better: "lower", On: onGrids},
	{Name: "apps.check_ms_per_cell", Unit: "ms", Better: "lower", On: onGrids},
	// harness
	{Name: "harness.cell_ms.Barnes", Unit: "ms", Better: "lower", On: onPaper},
	{Name: "harness.cell_ms.Ilink", Unit: "ms", Better: "lower", On: onPaper},
	{Name: "harness.cell_ms.TSP", Unit: "ms", Better: "lower", On: onPaper},
	{Name: "harness.cell_ms.Water", Unit: "ms", Better: "lower", On: onPaper},
	{Name: "harness.cell_ms.Jacobi", Unit: "ms", Better: "lower", On: onPaper},
	{Name: "harness.cell_ms.3D-FFT", Unit: "ms", Better: "lower", On: onPaper},
	{Name: "harness.cell_ms.MGS", Unit: "ms", Better: "lower", On: onPaper},
	{Name: "harness.cell_ms.Shallow", Unit: "ms", Better: "lower", On: onPaper},
	{Name: "harness.report_us_per_cell", Unit: "us", Better: "lower", On: onGrids},
	{Name: "harness.derive_speedup", Unit: "ratio", Better: "higher", On: onNet},
	// sweep
	{Name: "sweep.dispatch_us_per_task", Unit: "us", Better: "lower", On: onNet},
	{Name: "sweep.pool_efficiency", Unit: "ratio", Better: "higher", On: onNet | onScale},
	// expsvc
	{Name: "expsvc.resolve_hash_us", Unit: "us", Better: "lower", On: onServe},
	{Name: "expsvc.cache_get_ns", Unit: "ns", Better: "lower", On: onServe},
	{Name: "expsvc.cache_add_ns", Unit: "ns", Better: "lower", On: onServe},
	{Name: "expsvc.handler_hit_us", Unit: "us", Better: "lower", On: onServe},
	{Name: "expsvc.req_ms_p50", Unit: "ms", Better: "lower", On: onServe},
	{Name: "expsvc.req_ms_p99", Unit: "ms", Better: "lower", On: onServe},
	{Name: "expsvc.hit_us_p50", Unit: "us", Better: "lower", On: onServe},
	{Name: "expsvc.derived_us_p50", Unit: "us", Better: "lower", On: onServe},
	{Name: "expsvc.miss_ms_p50", Unit: "ms", Better: "lower", On: onServe},
	{Name: "expsvc.hit_share", Unit: "ratio", Better: "higher", On: onServe},
	{Name: "expsvc.derived_share", Unit: "ratio", Better: "higher", On: onServe},
	{Name: "expsvc.miss_share", Unit: "ratio", Better: "lower", On: onServe},
	{Name: "expsvc.coalesced_share", Unit: "ratio", Better: "lower", On: onServe},
	{Name: "expsvc.hit_wall_share", Unit: "ratio", Better: "higher", On: onServe},
	{Name: "expsvc.engine_runs", Unit: "count", Better: "lower", On: onServe},
	{Name: "expsvc.cache_evictions", Unit: "count", Better: "lower", On: onServe},
	// the traced pass itself
	{Name: "trace_overhead_share", Unit: "ratio", Better: "lower", On: onAll},
}
