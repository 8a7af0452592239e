package main

import (
	"math"
	"sort"
)

// endToEnd lists the metrics a user of the system sees, with their
// units, in output order. Every workload reports all of them on an
// untraced run; README.md says what each means per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"rps", "1/s"},
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"heap_mb", "MB"},
	{"model_r2", "ratio"},
	{"merch_speedup", "x"},
}

// perLayer lists the traced run's metrics. A workload reports 0 for a
// layer it does not run.
var perLayer = []metricDef{
	{"client.self_p50_us", "us"},
	{"gate.self_p50_us", "us"},
	{"gate.upstream_p50_us", "us"},
	{"gate.cache_hit_share", "share"},
	{"gate.cache_collapsed", "count"},
	{"gate.proxied", "count"},
	{"gate.retries", "count"},
	{"serve.handler_p50_us", "us"},
	{"serve.handler_p90_us", "us"},
	{"serve.self_p50_us", "us"},
	{"serve.wait_p50_us", "us"},
	{"serve.respond_p50_us", "us"},
	{"serve.batches", "count"},
	{"serve.batch_size_mean", "requests"},
	{"serve.mixed_share", "share"},
	{"serve.cache_hit_share", "share"},
	{"serve.rejected", "count"},
	{"placement.plan_p50_us", "us"},
	{"placement.tasks_per_plan", "tasks"},
	{"ml.predictions_per_op", "count"},
	{"ml.predict_p50_ns", "ns"},
	{"ml.predict_batch_1k_us", "us"},
	{"rcache.hash_p50_us", "us"},
	{"rcache.get_p50_ns", "ns"},
	{"store.restore_ms", "ms"},
	{"store.artifact_kb", "KB"},
	{"train.quick_s", "s"},
	{"corpus.stream_s", "s"},
	{"corpus.samples", "count"},
	{"ml.fit_s", "s"},
	{"pipeline.train_s", "s"},
	{"pipeline.eval_s", "s"},
	{"pipeline.overlap_ratio", "ratio"},
	{"hm.ticks_per_s", "1/s"},
	{"hm.ticks", "count"},
	{"hm.migrations", "count"},
	{"core.plans", "count"},
	{"placement.rounds", "count"},
	{"fail_share", "share"},
	{"trace.overhead_p50_ms", "ms"},
	{"host.steal_share", "share"},
	{"host.gomaxprocs", "count"},
	{"host.numcpu", "count"},
}

type metricDef struct{ name, unit string }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report renders values for the given definitions. A missing value reads
// 0; a non-finite one (a percentile reached by failed requests, which
// count as +Inf) reads as the largest finite float, since JSON has no
// infinity.
func report(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := values[d.name]
		if math.IsInf(v, 1) || math.IsNaN(v) {
			v = math.MaxFloat64
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

// quantile returns the q-quantile of samples by linear interpolation
// between closest ranks. +Inf samples sort last, so failures count
// against the tail.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	samples = append([]float64(nil), samples...)
	sort.Float64s(samples)
	pos := q * float64(len(samples)-1)
	lo := int(pos)
	if lo+1 >= len(samples) {
		return samples[len(samples)-1]
	}
	frac := pos - float64(lo)
	if frac == 0 {
		return samples[lo]
	}
	return samples[lo] + frac*(samples[lo+1]-samples[lo])
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// succeeded counts the latencies of operations that did not fail.
func succeeded(lat []float64) int {
	ok := 0
	for _, ms := range lat {
		if !math.IsInf(ms, 1) {
			ok++
		}
	}
	return ok
}
