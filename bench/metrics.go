package main

import "isgc/internal/trace"

// metricDef is one named number the benchmark prints. BENCHMARK.json
// repeats these tables for the driver; bench_test.go pins the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression (0 for
	// per-layer metrics, which are not gated).
	Bound float64
}

// endToEnd are the numbers a user of the training system sees. They come
// from the untraced pass. step_fail_frac is printed beside them but lives
// in the result's attempted/failed counts: it is 0 on a healthy run, and
// the contract wants metrics that are never 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"steps_per_s", "1/s", "higher", 0.25},
	{"step_p50_ms", "ms", "lower", 0.25},
	{"step_p95_ms", "ms", "lower", 0.25},
	{"samples_per_s", "1/s", "higher", 0.25},
	{"time_to_loss_s", "s", "lower", 0.25},
	{"recovered_frac_mean", "ratio", "higher", 0.06},
	{"final_loss", "loss", "lower", 0.25},
	{"alloc_mb_per_step", "MB", "lower", 0.10},
}

// perLayer are the traced pass's numbers, named <module>.<metric>.
var perLayer = []metricDef{
	{"cluster.step_ms", "ms", "lower", 0},
	{"cluster.step_p95_ms", "ms", "lower", 0},
	{"cluster.broadcast_ms", "ms", "lower", 0},
	{"cluster.broadcast_p95_ms", "ms", "lower", 0},
	{"cluster.gather_ms", "ms", "lower", 0},
	{"cluster.gather_p95_ms", "ms", "lower", 0},
	{"cluster.decode_ms", "ms", "lower", 0},
	{"cluster.decode_p95_ms", "ms", "lower", 0},
	{"cluster.update_ms", "ms", "lower", 0},
	{"cluster.update_p95_ms", "ms", "lower", 0},
	{"cluster.transport_ms", "ms", "lower", 0},
	{"cluster.worker_wait_ms", "ms", "lower", 0},
	{"cluster.wire_bytes_per_step", "B", "lower", 0},
	{"cluster.frames_per_step", "count", "lower", 0},
	{"cluster.frame_encode_us_per_mb", "us/MB", "lower", 0},
	{"cluster.frame_decode_us_per_mb", "us/MB", "lower", 0},
	{"cluster.arrival_used_frac", "ratio", "higher", 0},
	{"cluster.register_ms", "ms", "lower", 0},
	{"model.grad_ms", "ms", "lower", 0},
	{"model.grad_ms_per_step", "ms", "lower", 0},
	{"model.grad_calls", "count", "lower", 0},
	{"model.loss_ms", "ms", "lower", 0},
	{"model.loss_cpu_ms", "ms", "lower", 0},
	{"isgc.encode_ms", "ms", "lower", 0},
	{"engine.recover_p50_ms", "ms", "lower", 0},
	{"engine.recover_p95_ms", "ms", "lower", 0},
	{"isgc.decode_p50_us", "us", "lower", 0},
	{"isgc.decode_p95_us", "us", "lower", 0},
	{"isgc.aggregate_ms", "ms", "lower", 0},
	{"isgc.alpha_over_upper", "ratio", "higher", 0},
	{"straggler.delay_p50_ms", "ms", "lower", 0},
	{"straggler.delay_critical_ms", "ms", "lower", 0},
	{"checkpoint.save_ms", "ms", "lower", 0},
	{"checkpoint.bytes", "B", "lower", 0},
	{"checkpoint.saves", "count", "lower", 0},
	{"placement.build_ms", "ms", "lower", 0},
	{"dataset.batch_us", "us", "lower", 0},
	{"proc.cpu_ms_per_step", "ms", "lower", 0},
	{"proc.peak_rss_mb", "MB", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"bench.unaccounted_ms", "ms", "lower", 0},
	{"bench.unaccounted_frac", "ratio", "lower", 0},
	{"bench.trace_overhead_frac", "ratio", "lower", 0},
}

// quantile is trace.Percentile on a 0..1 scale, reading 0 (not NaN, which
// JSON cannot carry) for a layer that recorded nothing.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return trace.Percentile(xs, p*100)
}

const (
	msPerSec = 1e3
	usPerSec = 1e6
	mb       = 1 << 20
)
