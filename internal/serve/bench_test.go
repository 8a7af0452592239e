package serve

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"merchandiser"
	"merchandiser/internal/hm"
	"merchandiser/internal/ml"
	"merchandiser/internal/model"
	"merchandiser/internal/pmc"
)

// benchSystem builds a System whose performance model carries a
// GBR-backed correlation function at the Table 3 scale, so the serve
// benchmarks pay realistic inference cost per prediction (TrainNone
// would short-circuit Equation 2 to linear interpolation).
func benchSystem(b *testing.B) *merchandiser.System {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	d := len(pmc.SelectedEvents) + 1
	var X [][]float64
	var y []float64
	for i := 0; i < 600; i++ {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()
		}
		X = append(X, row)
		y = append(y, 0.6+0.4*row[0]*(1-row[d-1]))
	}
	gbr := ml.NewGradientBoosted(ml.GBRConfig{NumStages: 150, MaxDepth: 4, Seed: 1})
	if err := gbr.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	spec := merchandiser.DefaultSpec()
	spec.Tiers[hm.DRAM].CapacityBytes = 4096 * 4096
	spec.Tiers[hm.PM].CapacityBytes = 65536 * 4096
	return &merchandiser.System{
		Spec: spec,
		Perf: &model.PerfModel{Corr: &model.CorrelationFunc{Model: gbr, Events: pmc.SelectedEvents}},
	}
}

func benchRequest(name string, tasks int) *PlacementRequest {
	req := &PlacementRequest{}
	for i := 0; i < tasks; i++ {
		req.Tasks = append(req.Tasks, TaskRequest{
			Name:           name,
			TPmOnly:        2.0 + float64(i)*0.3,
			TDramOnly:      0.8,
			Events:         map[string]float64{pmc.SelectedEvents[0]: 0.5, pmc.SelectedEvents[1]: 0.2},
			TotalAccesses:  4e6,
			FootprintPages: 300,
		})
	}
	return req
}

// BenchmarkServePlace measures the in-process /place miss path under
// concurrency: each iteration sends 8 concurrent requests of 16 tasks
// each, and the planner answers every one with its own MinMakespanPlan
// over 16 tasks — the serve-side inference hot path.
func BenchmarkServePlace(b *testing.B) {
	sys := benchSystem(b)
	const requests = 8
	s := New(Config{QueueDepth: 2 * requests})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			b.Fatal(err)
		}
	}()
	s.Load(sys)
	req := benchRequest("bench", 16)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make([]error, requests)
		for j := 0; j < requests; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				_, errs[j] = s.Place(ctx, req)
			}(j)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}
