package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"

	"merchandiser"
	"merchandiser/internal/experiments"
	"merchandiser/internal/ml"
	"merchandiser/internal/model"
	"merchandiser/internal/pmc"
	"merchandiser/internal/serve"
)

// runCacheBench measures the replica-side response cache: it saves a
// small synthetic system, boots an in-process serve.Service on it, and
// times /place both cold (planner runs) and warm (cache hit). The ops
// block carries both latency distributions plus the hit speedup so
// BENCH files can assert the cache actually pays.
func runCacheBench(ctx context.Context, w io.Writer, out string, cfg experiments.Config) error {
	dir, err := os.MkdirTemp("", "merchbench-cache-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	sys := syntheticSystem()
	path := filepath.Join(dir, "cache.artifact")
	if err := sys.SaveFile(path); err != nil {
		return err
	}

	iters := 256
	if cfg.Quick {
		iters = 64
	}
	res, err := serve.CacheBench(ctx, path, iters)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "replica response cache (%d distinct requests):\n", res.Iters)
	fmt.Fprintf(w, "  %-6s %12s %12s\n", "path", "p50", "p99")
	fmt.Fprintf(w, "  %-6s %10.0fus %10.0fus\n", "miss", res.MissP50, res.MissP99)
	fmt.Fprintf(w, "  %-6s %10.0fus %10.0fus\n", "hit", res.HitP50, res.HitP99)
	fmt.Fprintf(w, "  hit speedup: %.1fx\n\n", res.HitSpeedupX)

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	rep := &experiments.BenchReport{
		Schema:  experiments.BenchSchema,
		Quick:   cfg.Quick,
		Seed:    cfg.Seed,
		Workers: workers,
		Ops: map[string]float64{
			"cache_iters":           float64(res.Iters),
			"cache_miss_p50_micros": res.MissP50,
			"cache_miss_p99_micros": res.MissP99,
			"cache_hit_p50_micros":  res.HitP50,
			"cache_hit_p99_micros":  res.HitP99,
			"cache_hit_speedup_x":   res.HitSpeedupX,
		},
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "cache bench report written to %s\n", out)
	return nil
}

// syntheticSystem fits a small GBR (16 stages of depth 4, 400 rows) on
// deterministic synthetic rows and wraps it in a servable System — the
// "small" ensemble of restore_bench_test.go.
func syntheticSystem() *merchandiser.System {
	const stages, depth, rows = 16, 4, 400
	rng := rand.New(rand.NewSource(stages))
	d := len(pmc.SelectedEvents) + 1
	X := make([][]float64, rows)
	y := make([]float64, rows)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64() * 10
		}
		X[i] = row
		y[i] = row[0]*0.4 + row[1]*row[2]*0.05 + rng.NormFloat64()*0.1
	}
	g := ml.NewGradientBoosted(ml.GBRConfig{NumStages: stages, MaxDepth: depth, Seed: 7})
	if err := g.Fit(X, y); err != nil {
		// Synthetic fit on well-formed rows cannot fail; treat it as the
		// program bug it would be.
		panic(err)
	}
	return &merchandiser.System{
		Spec:      merchandiser.DefaultSpec(),
		Perf:      &model.PerfModel{Corr: &model.CorrelationFunc{Model: g, Events: append([]string(nil), pmc.SelectedEvents...)}},
		TrainedR2: 0.9,
	}
}
