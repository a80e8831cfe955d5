package main

// endToEnd are the metrics every untraced run reports, and perLayer the
// metrics every traced run reports, with their units. BENCHMARK.json at
// the repository root lists the same names (a test keeps them equal).
// A traced run reports 0 for a layer metric whose layer the workload
// does not run; README.md maps each layer metric to the end-to-end
// metric and workload it should move.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"tensor.matmul_gflops", "GFLOP/s"},
	{"tensor.matmul_ta_gflops", "GFLOP/s"},
	{"tensor.matmul_tb_gflops", "GFLOP/s"},
	{"tensor.ew_gbps", "GB/s"},
	{"tensor.arena_hit_ratio", "ratio"},
	{"tensor.arena_mb", "MB"},
	{"lstm.fw_cell_us", "us"},
	{"lstm.bp_cell_us", "us"},
	{"lstm.fw_p1_cell_us", "us"},
	{"lstm.encode_p1_us", "us"},
	{"lstm.bp_sparse_cell_us", "us"},
	{"lstm.recompute_cell_us", "us"},
	{"lstm.infer_cell_us", "us"},
	{"model.fw_ms", "ms"},
	{"model.bp_ms", "ms"},
	{"model.ckpt_fw_ms", "ms"},
	{"model.ckpt_bp_ms", "ms"},
	{"model.recompute_ratio", "ratio"},
	{"model.stored_mb_peak", "MB"},
	{"model.infer_batch_ms", "ms"},
	{"reorder.prune_ms", "ms"},
	{"reorder.prune_ratio", "ratio"},
	{"skip.skip_frac", "ratio"},
	{"memplan.plan_ms", "ms"},
	{"memplan.ckpt_columns", "count"},
	{"train.apply_ms", "ms"},
	{"train.loss_final", "loss"},
	{"core.seq_per_s", "1/s"},
	{"core.step_ms_p50", "ms"},
	{"core.step_ms", "ms"},
	{"core.step_ms_p90", "ms"},
	{"core.fetch_us", "us"},
	{"core.unattributed_ms", "ms"},
	{"dist.reduce_ms_p50", "ms"},
	{"dist.reduce_ms_p90", "ms"},
	{"dist.wire_kb_per_step", "KiB"},
	{"dist.late_folds", "count"},
	{"compress.encode_us", "us"},
	{"compress.decode_us", "us"},
	{"compress.ratio", "ratio"},
	{"serve.mean_batch", "count"},
	{"serve.rejected_frac", "ratio"},
	{"serve.req_per_s", "1/s"},
	{"serve.lat_ms_p50", "ms"},
	{"serve.lat_ms_p90", "ms"},
	{"serve.session_ms_p50", "ms"},
	{"serve.nominal_ms_p90", "ms"},
	{"serve.rps_at_slo", "1/s"},
	{"serve.infer_ms_p50", "ms"},
	{"serve.wait_ms", "ms"},
	{"serve.http_us", "us"},
	{"serve.unattributed_pct", "%"},
	{"persist.load_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.gen_late_ms_max", "ms"},
	{"bench.machine_gflops", "GFLOP/s"},
}

// fillPerLayer reports 0 for every layer metric the traced run did not
// measure: the workload does not run that layer.
func fillPerLayer(r *run) {
	for _, m := range perLayer {
		if _, ok := r.metrics[m.name]; !ok {
			r.set(m.name, m.unit, 0)
		}
	}
}
