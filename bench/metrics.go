package main

// The metric tables. BENCHMARK.json at the repository root lists the
// same names, units, directions and bounds (bench_test.go holds the two
// together); the README defines each metric.

type metricDef struct {
	name   string
	unit   string
	better string // "lower" | "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression (0 for
	// per-layer metrics, which have none).
	bound float64
	// abs is an absolute slack, in the metric's unit: -agree allows a
	// worsening up to the larger of bound x median and abs, so that a
	// 3 ms set-up or 0.05 allocations per op are not held to a tenth of
	// themselves. BENCHMARK.json cannot express it; a driver that reads
	// only that file applies the relative bound alone.
	abs float64
	// moves names, for a per-layer metric, the end-to-end metric and
	// workload it should move.
	moves string
}

// endToEnd are the nine metrics a user of the simulator sees. All are
// host time or host resources, measured with Observe off and spans
// off. pass_ratio is 1 - fail_ratio and sim_match_ratio is the share
// of golden-pinned simulated statistics that are identical (1 when
// sim_mismatch is 0): the driver's contract needs metrics that are
// never 0, so both are reported as the share that is right.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, abs: 0.05},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "cpu_ns_per_op", unit: "ns", better: "lower", bound: 0.25},
	{name: "lat_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "lat_tail_us", unit: "us", better: "lower", bound: 0.25},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.10, abs: 0.02},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.25},
	{name: "pass_ratio", unit: "ratio", better: "higher", bound: 0.001},
	{name: "sim_match_ratio", unit: "ratio", better: "higher", bound: 0.001},
}

// perLayer are the single-layer metrics of the traced pass and the
// stage probes. A value of 0 on a workload means the layer is not on
// that workload's path.
var perLayer = []metricDef{
	// Exact, seed-fixed counts per op from Machine.Metrics / TNetStats.
	{name: "tnet.msgs_per_op", unit: "count", better: "lower", moves: "ops_per_s, cpu_ns_per_op on put_stream, bale_agg"},
	{name: "tnet.bytes_per_op", unit: "B", better: "lower", moves: "ops_per_s on put_bulk"},
	{name: "tnet.hops_per_msg", unit: "count", better: "lower", moves: "none on the host (MLSim prices hops)"},
	{name: "msc.spills_per_kop", unit: "count", better: "lower", moves: "cpu_ns_per_op on put_stream (128 commands into a 64-word queue)"},
	{name: "msc.interrupts_per_kop", unit: "count", better: "lower", moves: "cpu_ns_per_op on put_stream"},
	{name: "msc.user_max_depth", unit: "count", better: "lower", moves: "msc.spills_per_kop"},
	{name: "machine.recv_dmas_per_op", unit: "count", better: "lower", moves: "cpu_ns_per_op on put_stream, put_bulk"},
	{name: "machine.atomics_per_op", unit: "count", better: "lower", moves: "ops_per_s on rtt_mix"},
	{name: "mc.flag_waits_per_op", unit: "count", better: "lower", moves: "lat_p50_us on put_stream"},
	{name: "bnet.msgs_per_op", unit: "count", better: "lower", moves: "ops_per_s on paper_apps"},
	{name: "pgas.agg_pushes_per_packet", unit: "count", better: "higher", moves: "ops_per_s on bale_agg"},
	{name: "pgas.agg_advances_per_kop", unit: "count", better: "lower", moves: "ops_per_s on bale_agg"},
	// Waiting, from the same snapshot (the host analogue of Figure 8 idle).
	{name: "mc.flag_wait_ns_per_op", unit: "ns", better: "lower", moves: "lat_p50_us on put_stream"},
	{name: "barrier.stall_ns_per_op", unit: "ns", better: "lower", moves: "ops_per_s on paper_apps"},
	// Driver spans.
	{name: "machine.new_ms", unit: "ms", better: "lower", moves: "setup_s"},
	{name: "machine.alloc_ms", unit: "ms", better: "lower", moves: "setup_s"},
	{name: "apps.build_ms", unit: "ms", better: "lower", moves: "setup_s on mlsim_replay; untimed on bale_agg, paper_apps"},
	{name: "apps.verify_ms", unit: "ms", better: "lower", moves: "setup_s on mlsim_replay; untimed on bale_agg, paper_apps"},
	{name: "machine.run_overhead_us", unit: "us", better: "lower", moves: "lat_p50_us on tenancy_open"},
	{name: "core.put_issue_ns", unit: "ns", better: "lower", moves: "cpu_ns_per_op, ops_per_s on put_stream"},
	{name: "mc.flag_wait_self_ns", unit: "ns", better: "lower", moves: "cpu_ns_per_op, ops_per_s on put_stream"},
	{name: "core.put_rtt_xshard_p50_us", unit: "us", better: "lower", moves: "lat_p50_us on rtt_mix"},
	{name: "core.put_rtt_xshard_p99_us", unit: "us", better: "lower", moves: "lat_tail_us on rtt_mix"},
	{name: "core.put_rtt_inline_p50_us", unit: "us", better: "lower", moves: "lat_p50_us on rtt_mix"},
	{name: "core.get_rtt_xshard_p50_us", unit: "us", better: "lower", moves: "lat_p50_us on rtt_mix"},
	{name: "machine.fetchadd_rtt_xshard_p50_us", unit: "us", better: "lower", moves: "lat_p50_us on rtt_mix"},
	{name: "tenancy.submit_ns", unit: "ns", better: "lower", moves: "lat_p50_us on tenancy_open"},
	{name: "tenancy.queue_p50_us", unit: "us", better: "lower", moves: "lat_p50_us on tenancy_open"},
	{name: "tenancy.queue_tail_us", unit: "us", better: "lower", moves: "lat_tail_us on tenancy_open"},
	{name: "tenancy.run_p50_us", unit: "us", better: "lower", moves: "lat_p50_us on tenancy_open"},
	{name: "tenancy.gen_late_p99_us", unit: "us", better: "lower", moves: "lat_tail_us on tenancy_open (generator health)"},
	{name: "apps.cg_run_ms", unit: "ms", better: "lower", moves: "ops_per_s on paper_apps"},
	{name: "apps.tcst_run_ms", unit: "ms", better: "lower", moves: "ops_per_s on paper_apps"},
	{name: "apps.tcnost_run_ms", unit: "ms", better: "lower", moves: "ops_per_s on paper_apps"},
	{name: "apps.matmul_run_ms", unit: "ms", better: "lower", moves: "ops_per_s on paper_apps"},
	{name: "mlsim.cg_mev_per_s", unit: "1/us", better: "higher", moves: "ops_per_s on mlsim_replay"},
	{name: "mlsim.tcnost_mev_per_s", unit: "1/us", better: "higher", moves: "ops_per_s on mlsim_replay"},
	{name: "mlsim.matmul_mev_per_s", unit: "1/us", better: "higher", moves: "ops_per_s on mlsim_replay"},
	{name: "mlsim.scg_mev_per_s", unit: "1/us", better: "higher", moves: "ops_per_s on mlsim_replay"},
	{name: "trace.encode_mb_per_s", unit: "MB/s", better: "higher", moves: "setup_s on mlsim_replay"},
	{name: "trace.decode_mb_per_s", unit: "MB/s", better: "higher", moves: "setup_s on mlsim_replay"},
	{name: "stats.table2_mae_pct", unit: "%", better: "lower", moves: "none (accuracy is reported; identity is gated by sim_match_ratio)"},
	// Stage probes: one layer in isolation, ns per call.
	{name: "ring.spsc_pushpop_ns", unit: "ns", better: "lower", moves: "cpu_ns_per_op on put_stream"},
	{name: "ring.spsc_xfer_ns", unit: "ns", better: "lower", moves: "cpu_ns_per_op on put_stream"},
	{name: "ring.overflow_spill_ns", unit: "ns", better: "lower", moves: "cpu_ns_per_op on put_stream"},
	{name: "tnet.ringlink_enq_drain_ns", unit: "ns", better: "lower", moves: "cpu_ns_per_op on put_stream, rtt_mix"},
	{name: "tnet.mutexlink_enq_drain_ns", unit: "ns", better: "lower", moves: "none (reference link)"},
	{name: "tnet.send_inline_ns", unit: "ns", better: "lower", moves: "lat_p50_us on rtt_mix (same-shard path)"},
	{name: "tnet.send_ring_ns", unit: "ns", better: "lower", moves: "cpu_ns_per_op on put_stream"},
	{name: "msc.ring_push_pop_ns", unit: "ns", better: "lower", moves: "cpu_ns_per_op on put_stream, rtt_mix"},
	{name: "msc.ring_spill_ns", unit: "ns", better: "lower", moves: "cpu_ns_per_op on put_stream"},
	{name: "msc.mutex_push_pop_ns", unit: "ns", better: "lower", moves: "none (legacy wire)"},
	{name: "mc.flag_inc_ns", unit: "ns", better: "lower", moves: "cpu_ns_per_op on put_stream"},
	{name: "mc.flag_wake_us", unit: "us", better: "lower", moves: "lat_p50_us on rtt_mix, put_stream"},
	{name: "mem.capture_512_ns", unit: "ns", better: "lower", moves: "cpu_ns_per_op on put_stream"},
	{name: "mem.deliver_512_ns", unit: "ns", better: "lower", moves: "cpu_ns_per_op on put_stream"},
	{name: "mem.copy_64k_gb_per_s", unit: "GB/s", better: "higher", moves: "ops_per_s on put_bulk"},
	{name: "mem.stride_64k_gb_per_s", unit: "GB/s", better: "higher", moves: "ops_per_s on put_bulk"},
	{name: "topology.route_ns", unit: "ns", better: "lower", moves: "cpu_ns_per_op on put_stream"},
	{name: "pgas.layout_translate_ns", unit: "ns", better: "lower", moves: "ops_per_s on bale_agg"},
	{name: "fault.fate_ns", unit: "ns", better: "lower", moves: "none (fault plans are off in every workload)"},
	{name: "event.push_pop_ns", unit: "ns", better: "lower", moves: "ops_per_s on mlsim_replay"},
	{name: "trace.record_ns", unit: "ns", better: "lower", moves: "ops_per_s on paper_apps"},
	// Reconciliation.
	{name: "machine.put_stage_sum_ns", unit: "ns", better: "lower", moves: "cpu_ns_per_op on put_stream (the outside-in host Figure 7)"},
	{name: "machine.put_unattributed_pct", unit: "%", better: "lower", moves: "cpu_ns_per_op on put_stream (worker pool, parking, Go scheduler)"},
	{name: "obs.overhead_pct", unit: "%", better: "lower", moves: "none (the observability budget, traced vs untraced ops_per_s)"},
}

// workloads, in the order one command runs them. Closed loop unless
// stated: the machine's own cell goroutines generate the load.
var workloads = []*workload{
	{name: "put_stream", tail: 99, segs: 20, setup: setupPutStream,
		why: "per-packet fixed cost: 256 cells PUT 512 B x128 cross-shard, so ring, tnet, msc and the machine workers do the work and mem almost none; lat_tail_us is p99 of one cell's burst"},
	{name: "put_bulk", tail: 75, segs: 20, setup: setupPutBulk,
		why: "same path, opposite regime: 64 KiB contiguous and stride PUTs, mem capture/deliver dominate and per-packet cost is noise; a batching trick that wins put_stream must not lose here; tail is p75"},
	{name: "rtt_mix", tail: 99, segs: 20, setup: setupRTTMix,
		why: "latency not throughput: one cell does 8 B PUT ping-pong, GET and FetchAdd round trips cross-shard and same-shard with 61 cells idle; park/wake and doorbell path, nothing to batch; tail is p99"},
	{name: "bale_agg", tail: 99, segs: 8, setup: setupBaleAgg,
		why: "pgas aggregator pack/apply and index translation do the work (histogram + index-gather, 64 cells) while the wire carries ~0.1 msg/op; bypasses per-packet cost; tail is p99 of a cell's run"},
	{name: "paper_apps", tail: 90, segs: 10, setup: setupPaperApps,
		why: "the paper's own programs (CG, TC st, TC no st, MatMul at Table 2 sizes, traced): vpp, core batching, barrier/snet, bnet reductions, sendrecv, trace recorder; tail is p90"},
	{name: "tenancy_open", tail: 95, segs: 20, setup: setupTenancyOpen,
		why: "open loop: seeded Poisson arrivals at 4000 jobs/s into the gang scheduler of a 4-partition machine; scheduler and Open/RunJob/reset lifecycle dominate; latency from due time, tail is p95"},
	{name: "mlsim_replay", tail: 90, segs: 16, setup: setupMLSimReplay,
		why: "single-threaded discrete-event replay of five application traces under three machine models (mlsim, event, params): the paper's method, where nothing in machine or tnet should move; tail is p90"},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
