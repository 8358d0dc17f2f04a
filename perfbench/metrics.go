package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's contract: BENCHMARK.json lists exactly these names
// (a test pins that), every workload reports every end-to-end metric on
// an untraced run and every per-layer metric on a traced run. A per-layer
// metric a workload cannot observe from outside reads 0.
type metricDef struct {
	name string
	unit string
}

// e2eMetrics are measured with tracing off. Latency is not among them:
// on a shared 2-vCPU host the device-side percentiles moved by a quarter
// (p50) to three quarters (p90) between sets of runs of one build as CPU
// steal came and went, so they are per-layer metrics without a bound.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"peak_rps", "req/s"},
	{"cpu_us_per_req", "us"},
	{"peak_heap_mb", "MB"},
}

// cpuLayers are the buckets a traced run's CPU profile samples fall into
// (see classifyStack). Each becomes a cpu.<bucket>_share metric.
var cpuLayers = []string{
	"offload", "realtime", "core", "cluster", "workload", "sim", "scenario",
	"substrate", "other", "runtime_sched", "runtime_gc", "runtime_other",
	"syscall", "bench",
}

// layerMetrics are measured on a traced run.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"realtime.server_p50_us", "us"},
		{"realtime.server_p99_us", "us"},
		{"realtime.client_p50_us", "us"},
		{"realtime.client_p90_us", "us"},
		{"realtime.client_p99_us", "us"},
		{"realtime.read_calls_per_req", "count"},
		{"realtime.write_calls_per_result", "count"},
		{"realtime.read_us_per_call", "us"},
		{"realtime.write_us_per_call", "us"},
		{"realtime.timer_wakeups_per_kreq", "count"},
		{"offload.encode_ns_per_frame", "ns"},
		{"offload.decode_ns_per_frame", "ns"},
		{"offload.allocs_per_frame", "count"},
		{"offload.wire_bytes_per_req", "bytes"},
		{"core.queued_ratio", "1"},
		{"core.affinity_hit_ratio", "1"},
		{"core.warehouse_hit_ratio", "1"},
		{"core.evictions_per_kreq", "count"},
		{"core.boots", "count"},
		{"core.template_clones", "count"},
		{"core.stage_queue_wait_ms", "ms"},
		{"core.stage_chunk_stage_ms", "ms"},
		{"core.stage_run_ms", "ms"},
		{"workload.execute_us", "us"},
		{"scenario.retries", "count"},
		{"scenario.warehouse_hit_ratio", "1"},
		{"scenario.wall_s_per_vhour", "s"},
	}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{"cpu." + l + "_share", "1"})
	}
	return append(defs,
		metricDef{"proc.allocs_per_req", "count"},
		metricDef{"proc.alloc_bytes_per_req", "bytes"},
		metricDef{"proc.gc_per_kreq", "count"},
		metricDef{"gen.late_p50_ms", "ms"},
		metricDef{"gen.late_p99_ms", "ms"},
		metricDef{"trace.overhead_pct", "%"},
		metricDef{"error_ratio", "1"},
	)
}()

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
