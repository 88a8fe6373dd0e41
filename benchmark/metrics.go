package main

// metricDef is one metric the benchmark reports: its name, unit, which
// direction is better and, for an end-to-end metric, the share of the
// parent's median by which it may worsen before a change is rejected.
// BENCHMARK.json at the repository root carries the same table; the
// package test fails when the two disagree.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd lists the six metrics every workload reports. The time base
// differs by workload family (host for rt_*, virtual for the latency
// and bandwidth of sim_*); README.md has the table. A bound is per
// metric, not per workload, and every metric is a host-time number on
// at least three workloads, where ten uncalibrated runs on the shared
// sizing host spread by 10-25% (3-7% calibrated, calib.go): hence the
// widest bound the contract allows on all.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_s", "1/s", "higher", 0.25},
	{"gb_s", "GB/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"lat_p99_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
}

// perLayer lists the metrics of single layers, reported by the traced
// run. A layer the workload bypasses reports 0: it did no work and took
// no time in that workload. README.md ties each to the end-to-end
// metric it should move.
var perLayer = []metricDef{
	// realtime, seen from the generator: spans around each call.
	{"realtime.alloc_ns_per_op", "ns", "lower", 0},
	{"realtime.submit_ns_per_op", "ns", "lower", 0},
	{"realtime.poll_ns_per_op", "ns", "lower", 0},
	{"realtime.retrieve_ns_per_op", "ns", "lower", 0},
	{"realtime.free_ns_per_op", "ns", "lower", 0},
	{"realtime.poll_wait_frac", "frac", "lower", 0},
	{"realtime.engine_lat_p50_us", "us", "lower", 0},
	{"realtime.engine_lat_p99_us", "us", "lower", 0},
	{"realtime.dwell_p50_us", "us", "lower", 0},
	// realtime, from Device.Stats() deltas over the traced windows.
	{"realtime.kicks_per_op", "1/op", "lower", 0},
	{"realtime.worker_wakes_per_op", "1/op", "lower", 0},
	{"realtime.batches_per_op", "1/op", "lower", 0},
	{"realtime.dispatch_retries_per_op", "1/op", "lower", 0},
	{"realtime.steals_per_op", "1/op", "lower", 0},
	{"realtime.chunks_per_op", "1/op", "lower", 0},
	{"realtime.inline_frac", "frac", "higher", 0},
	{"realtime.aged_pops_per_op", "1/op", "lower", 0},
	{"realtime.shed", "count", "lower", 0},
	{"realtime.stage_staging_wait_p50_us", "us", "lower", 0},
	{"realtime.stage_dispatch_wait_p50_us", "us", "lower", 0},
	{"realtime.stage_ring_wait_p50_us", "us", "lower", 0},
	{"realtime.stage_copy_p50_us", "us", "lower", 0},
	{"realtime.stage_completion_dwell_p50_us", "us", "lower", 0},
	{"realtime.copy_frac_of_floor", "frac", "higher", 0},
	// Host floors: denominators, not program properties.
	{"host.calibration", "x", "higher", 0},
	{"floor.memmove_gb_s", "GB/s", "higher", 0},
	{"floor.park_wake_ns", "ns", "lower", 0},
	{"rbq.roundtrip_ns", "ns", "lower", 0},
	// Cost of the observability layer and of this benchmark's tracing.
	{"obs.armed_overhead_frac", "frac", "lower", 0},
	{"trace.overhead_frac", "frac", "lower", 0},
	{"trace.span_coverage_frac", "frac", "higher", 0},
	// The simulator itself (host time).
	{"sim.host_ns_per_op", "ns", "lower", 0},
	{"sim.host_us_per_virt_ms", "us", "lower", 0},
	{"sim.ops_s_allprocs", "1/s", "higher", 0},
	// core: the paper's Table 1 phases per request (virtual time).
	{"core.phase_interface_us_virt", "us", "lower", 0},
	{"core.phase_prep_us_virt", "us", "lower", 0},
	{"core.phase_remap_us_virt", "us", "lower", 0},
	{"core.phase_dmacfg_us_virt", "us", "lower", 0},
	{"core.phase_copy_us_virt", "us", "lower", 0},
	{"core.phase_release_us_virt", "us", "lower", 0},
	{"core.phase_notify_us_virt", "us", "lower", 0},
	{"core.cpu_user_frac_virt", "frac", "lower", 0},
	{"core.cpu_kern_frac_virt", "frac", "lower", 0},
	{"core.syscalls_per_req", "1/op", "lower", 0},
	{"core.worker_wakes_per_req", "1/op", "lower", 0},
	// uapi: the request's own stage stamps (virtual time).
	{"uapi.staging_wait_p50_us_virt", "us", "lower", 0},
	{"uapi.dispatch_wait_p50_us_virt", "us", "lower", 0},
	{"uapi.prep_p50_us_virt", "us", "lower", 0},
	{"uapi.copy_release_p50_us_virt", "us", "lower", 0},
	{"uapi.dwell_p50_us_virt", "us", "lower", 0},
	// dma: the modelled engine.
	{"dma.busy_frac_virt", "frac", "higher", 0},
	{"dma.desc_reuse_frac", "frac", "higher", 0},
	{"dma.irqs_per_req", "1/op", "lower", 0},
	{"dma.bytes_per_transfer", "B", "higher", 0},
	{"dma.priority_bypasses", "count", "higher", 0},
	// Reference: the same three phases through the Linux baseline.
	{"linuxmig.gb_s_virt", "GB/s", "higher", 0},
	{"linuxmig.cpu_frac_virt", "frac", "lower", 0},
	{"core.speedup_vs_linuxmig_4k16", "x", "higher", 0},
	{"core.speedup_vs_linuxmig_64k4", "x", "higher", 0},
	{"core.speedup_vs_linuxmig_2m1", "x", "higher", 0},
	// streamrt.
	{"streamrt.fast_chunk_frac", "frac", "higher", 0},
	{"streamrt.fills_per_flush", "x", "higher", 0},
	{"streamrt.stalls", "count", "lower", 0},
	{"streamrt.tail_waits", "count", "lower", 0},
	{"streamrt.fill_lat_p50_us_virt", "us", "lower", 0},
	{"streamrt.speedup_vs_direct", "x", "higher", 0},
	{"streamrt.fg_p99_ratio", "x", "lower", 0},
	{"streamrt.table4_gain_err_pts", "pts", "lower", 0},
	{"workloads.kernel_host_frac", "frac", "lower", 0},
	{"vm.mmap_host_ms", "ms", "lower", 0},
}
