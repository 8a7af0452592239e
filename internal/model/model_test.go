package model

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"merchandiser/internal/access"
	"merchandiser/internal/corpus"
	"merchandiser/internal/hm"
	"merchandiser/internal/ml"
	"merchandiser/internal/pmc"
)

func TestEstimateAccessesProportional(t *testing.T) {
	// The paper's worked example: base 128 B -> 2 accesses, new 192 B with
	// α = 1 -> 3 accesses.
	got := EstimateAccesses(2, 128, 192, 1)
	if got != 3 {
		t.Fatalf("EstimateAccesses = %v, want 3", got)
	}
	if EstimateAccesses(0, 128, 192, 1) != 0 {
		t.Fatal("zero profile should estimate zero")
	}
	if EstimateAccesses(2, 0, 192, 1) != 0 {
		t.Fatal("zero base size should estimate zero")
	}
	if EstimateAccesses(2, 128, 192, 0) != 0 {
		t.Fatal("zero alpha should estimate zero")
	}
}

func TestAlphaOfflineStream(t *testing.T) {
	p := access.Pattern{Kind: access.Stream, ElemSize: 4}
	// The paper's example sizes: both divisible after rounding, α = 1.
	a := AlphaOffline(p, 128, 192)
	if math.Abs(a-1) > 1e-9 {
		t.Fatalf("stream alpha = %v, want 1", a)
	}
	// Non-divisible sizes round up: 100 B -> 2 lines, 130 B -> 3 lines.
	// α = (130·2)/(100·3) ≈ 0.8667.
	a = AlphaOffline(p, 100, 130)
	want := 130.0 * 2 / (100 * 3)
	if math.Abs(a-want) > 1e-9 {
		t.Fatalf("rounded stream alpha = %v, want %v", a, want)
	}
	// Consistency: Equation 1 with this α reproduces the true line count.
	est := EstimateAccesses(2, 100, 130, a)
	if math.Abs(est-3) > 1e-9 {
		t.Fatalf("estimate with offline alpha = %v, want 3", est)
	}
}

func TestAlphaOfflineStrided(t *testing.T) {
	// 256-byte stride: every access its own line; accesses scale with
	// element count.
	p := access.Pattern{Kind: access.Strided, ElemSize: 8, StrideBytes: 256}
	a := AlphaOffline(p, 1<<20, 2<<20)
	if math.Abs(a-1) > 0.01 {
		t.Fatalf("strided alpha = %v, want ~1", a)
	}
}

func TestAlphaOfflineStencil(t *testing.T) {
	p := access.Pattern{Kind: access.Stencil, ElemSize: 8, Points: 5}
	a := AlphaOffline(p, 1<<20, 4<<20)
	// Input-independent stencil misses scale linearly with size, so α ≈ 1.
	if a < 0.8 || a > 1.25 {
		t.Fatalf("stencil alpha = %v, want near 1", a)
	}
	// Input-dependent patterns start at 1.
	dep := access.Pattern{Kind: access.Stencil, ElemSize: 8, Points: 5, InputDependent: true}
	if AlphaOffline(dep, 1, 2) != 1 {
		t.Fatal("input-dependent stencil must start at α = 1")
	}
	rnd := access.Pattern{Kind: access.Random, ElemSize: 8}
	if AlphaOffline(rnd, 1, 2) != 1 {
		t.Fatal("random must start at α = 1")
	}
}

func TestAlphaRefinerConverges(t *testing.T) {
	// Ground truth: α* = 2 (the object caches better than proportional).
	r := NewAlphaRefiner()
	prof, sBase := 1000.0, 100.0
	trueAlpha := 2.0
	for i := 0; i < 20; i++ {
		sNew := 100.0 + float64(i*10)
		measured := sNew / (sBase * trueAlpha) * prof
		if err := r.Observe(prof, sBase, measured, sNew); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(r.Alpha()-trueAlpha) > 0.01 {
		t.Fatalf("refined alpha = %v, want %v", r.Alpha(), trueAlpha)
	}
	if r.Observations() != 20 {
		t.Fatalf("observations = %d", r.Observations())
	}
}

func TestAlphaRefinerRobustness(t *testing.T) {
	r := NewAlphaRefiner()
	if err := r.Observe(0, 1, 1, 1); err == nil {
		t.Fatal("zero profile should error")
	}
	// Zero measurement (sampling missed the object) is skipped silently.
	if err := r.Observe(100, 10, 0, 20); err != nil {
		t.Fatal(err)
	}
	if r.Alpha() != 1 || r.Observations() != 0 {
		t.Fatal("skipped observation must not move alpha")
	}
}

func TestPredictHybridBounds(t *testing.T) {
	f := func(rRaw, fRaw uint8) bool {
		r := float64(rRaw) / 255
		fv := 0.05 + float64(fRaw)/255*1.9
		tPm, tDram := 10.0, 3.0
		th := PredictHybrid(tPm, tDram, r, fv)
		return th >= tDram-1e-12 && th <= tPm+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Endpoints.
	if got := PredictHybrid(10, 3, 1, 1); got != 3 {
		t.Fatalf("all-DRAM prediction = %v, want 3", got)
	}
	if got := PredictHybrid(10, 3, 0, 1); got != 10 {
		t.Fatalf("all-PM prediction = %v, want 10", got)
	}
	// Out-of-range r clamps.
	if got := PredictHybrid(10, 3, -0.5, 1); got != 10 {
		t.Fatalf("negative r should clamp to PM-only, got %v", got)
	}
	if got := PredictHybrid(10, 3, 1.5, 1); got != 3 {
		t.Fatalf("r > 1 should clamp to DRAM-only, got %v", got)
	}
}

func smallSpec() hm.SystemSpec {
	s := hm.DefaultSpec()
	s.Tiers[hm.DRAM].CapacityBytes = 64 << 20
	s.Tiers[hm.PM].CapacityBytes = 512 << 20
	s.LLCBytes = 1 << 20
	return s
}

// trainSmallCorr trains a quick correlation function for tests.
func trainSmallCorr(t *testing.T) (*TrainResult, []corpus.Sample) {
	t.Helper()
	regions := corpus.StandardCorpus(70, 3)
	samples, err := corpus.Build(context.Background(), regions, smallSpec(), corpus.BuildConfig{Placements: 8, StepSec: 0.002, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := TrainCorrelation(context.Background(), samples, pmc.SelectedEvents,
		func() ml.Regressor { return ml.NewGradientBoosted(ml.GBRConfig{NumStages: 100, Seed: 2}) }, 4)
	if err != nil {
		t.Fatal(err)
	}
	return res, samples
}

func TestTrainCorrelationAccuracy(t *testing.T) {
	res, _ := trainSmallCorr(t)
	if res.TestR2 < 0.5 {
		t.Fatalf("correlation test R2 = %v, want > 0.5", res.TestR2)
	}
	if res.TrainR2 < res.TestR2-0.05 {
		t.Fatalf("train R2 (%v) below test R2 (%v)?", res.TrainR2, res.TestR2)
	}
	if res.Samples < 60 {
		t.Fatalf("samples = %d", res.Samples)
	}
}

func TestPerfModelPredictsHeldOutPlacements(t *testing.T) {
	res, samples := trainSmallCorr(t)
	pm := &PerfModel{Corr: res.Corr}
	var y, pred []float64
	for _, s := range samples {
		y = append(y, s.THybrid)
		pred = append(pred, pm.Predict(s.TPm, s.TDram, s.Events, s.RDram))
	}
	var sumErr float64
	for i := range y {
		sumErr += math.Abs(y[i]-pred[i]) / y[i]
	}
	mape := sumErr / float64(len(y))
	if mape > 0.2 {
		t.Fatalf("Equation 2 MAPE = %v, want < 0.2", mape)
	}
}

func TestPerfModelWithoutCorrFallsBackToLinear(t *testing.T) {
	pm := &PerfModel{}
	got := pm.Predict(10, 2, pmc.Counters{}, 0.5)
	want := PredictHybrid(10, 2, 0.5, 1)
	if got != want {
		t.Fatalf("fallback prediction = %v, want %v", got, want)
	}
}

func TestTrainCorrelationErrors(t *testing.T) {
	if _, err := TrainCorrelation(context.Background(), nil, pmc.SelectedEvents,
		func() ml.Regressor { return ml.NewKNN(ml.KNNConfig{}) }, 1); err == nil {
		t.Fatal("too few samples should error")
	}
}

func TestHomogeneousPredictor(t *testing.T) {
	h := &HomogeneousPredictor{
		Blocks: []BasicBlock{
			{Name: "b1", TimePM: 2e-3, TimeDRAM: 1e-3, BaseCount: 100},
			{Name: "b2", TimePM: 4e-3, TimeDRAM: 1.5e-3, BaseCount: 50},
		},
		BaseSizes: []float64{100, 200},
	}
	// Same input: exact base times.
	tPm, tDram, err := h.Predict([]float64{100, 200})
	if err != nil {
		t.Fatal(err)
	}
	wantPm := 2e-3*100 + 4e-3*50
	wantDram := 1e-3*100 + 1.5e-3*50
	if math.Abs(tPm-wantPm) > 1e-12 || math.Abs(tDram-wantDram) > 1e-12 {
		t.Fatalf("base prediction = %v/%v, want %v/%v", tPm, tDram, wantPm, wantDram)
	}
	// Doubled input, same shape: doubled times.
	tPm2, _, err := h.Predict([]float64{200, 400})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tPm2-2*wantPm) > 1e-9 {
		t.Fatalf("doubled input prediction = %v, want %v", tPm2, 2*wantPm)
	}
	// Different shape: discounted by cosine similarity, still positive
	// and below the pure-magnitude estimate.
	tPm3, _, err := h.Predict([]float64{200, 100})
	if err != nil {
		t.Fatal(err)
	}
	if tPm3 <= 0 || tPm3 >= tPm2 {
		t.Fatalf("shape-shifted prediction = %v, want in (0, %v)", tPm3, tPm2)
	}
	// PM prediction always at or above DRAM prediction.
	if tDram > tPm {
		t.Fatal("DRAM-only should not be slower than PM-only")
	}
	// Errors.
	if _, _, err := h.Predict([]float64{1}); err == nil {
		t.Fatal("wrong-length size vector should error")
	}
	empty := &HomogeneousPredictor{BaseSizes: []float64{0, 0}}
	if _, _, err := empty.Predict([]float64{0, 0}); err == nil {
		t.Fatal("zero base sizes should error")
	}
}

func TestCorrelationEvalClamps(t *testing.T) {
	// A model that returns wild values is clamped into (0, 2].
	c := &CorrelationFunc{Model: constantModel(-5), Events: pmc.SelectedEvents}
	if got := c.Eval(pmc.Counters{}, 0.5); got != 0.05 {
		t.Fatalf("low clamp = %v", got)
	}
	c.Model = constantModel(99)
	if got := c.Eval(pmc.Counters{}, 0.5); got != 2 {
		t.Fatalf("high clamp = %v", got)
	}
}

type constantModel float64

func (c constantModel) Fit(X [][]float64, y []float64) error { return nil }
func (c constantModel) Predict(x []float64) float64          { return float64(c) }
func (c constantModel) Name() string                         { return "const" }

func TestAlphaStencilMicrobenchScalesLargeObjects(t *testing.T) {
	p := access.Pattern{Kind: access.Stencil, ElemSize: 8, Points: 7}
	// Very large sizes take the capped-and-scaled path; α must stay ~1 and
	// the call must stay fast.
	a := AlphaStencilMicrobench(p, 64<<20, 256<<20)
	if a < 0.8 || a > 1.25 {
		t.Fatalf("large-object stencil alpha = %v, want near 1", a)
	}
	// Degenerate inputs fall back to 1.
	if got := AlphaStencilMicrobench(p, 0, 1); got != 1 {
		t.Fatalf("zero base size alpha = %v", got)
	}
	if got := AlphaStencilMicrobench(access.Pattern{Kind: access.Stencil}, 1<<20, 2<<20); got <= 0 {
		t.Fatalf("defaulted pattern alpha = %v", got)
	}
}

func TestAlphaRefinerSmoothingClamped(t *testing.T) {
	r := NewAlphaRefiner()
	r.Smoothing = 5 // out of range: falls back to 0.5
	if err := r.Observe(100, 10, 50, 10); err != nil {
		t.Fatal(err)
	}
	// implied α = 10·100/(10·50) = 2; EMA with 0.5 from 1 → 1.5.
	if math.Abs(r.Alpha()-1.5) > 1e-9 {
		t.Fatalf("alpha = %v, want 1.5", r.Alpha())
	}
}

func TestPredictHybridMonotoneInR(t *testing.T) {
	prev := math.Inf(1)
	for r := 0.0; r <= 1.0; r += 0.05 {
		v := PredictHybrid(10, 2, r, 1)
		if v > prev+1e-12 {
			t.Fatalf("prediction not monotone at r=%v: %v > %v", r, v, prev)
		}
		prev = v
	}
}

func TestHomogeneousPredictorDRAMNeverSlower(t *testing.T) {
	h := &HomogeneousPredictor{
		Blocks: []BasicBlock{
			{Name: "b", TimePM: 3e-3, TimeDRAM: 1e-3, BaseCount: 10},
		},
		BaseSizes: []float64{100},
	}
	for _, scale := range []float64{0.5, 1, 2, 7} {
		tPm, tDram, err := h.Predict([]float64{100 * scale})
		if err != nil {
			t.Fatal(err)
		}
		if tDram > tPm {
			t.Fatalf("at scale %v: DRAM %v slower than PM %v", scale, tDram, tPm)
		}
	}
}

// TestEquation1CrossValidatedAgainstEngine: profile a workload at a base
// size on the simulator, estimate its main-memory accesses at a doubled
// size with Equation 1 (offline α), and compare against the engine's
// ground truth — the end-to-end claim of Section 4 for the offline
// patterns.
func TestEquation1CrossValidatedAgainstEngine(t *testing.T) {
	spec := smallSpec()
	measure := func(p access.Pattern, bytes uint64, programAccesses float64) float64 {
		mem := hm.NewMemory(spec)
		o, err := mem.Alloc("A", "t", bytes, hm.PM)
		if err != nil {
			t.Fatal(err)
		}
		eng := &hm.Engine{Mem: mem, StepSec: 0.001}
		res, err := eng.Run(context.Background(), []hm.TaskWork{{
			Name: "t",
			Phases: []hm.Phase{{
				Name:     "k",
				Accesses: []hm.PhaseAccess{{Obj: o, Pattern: p, ProgramAccesses: programAccesses, Seed: 1}},
			}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Counters[0].MainAccesses
	}
	cases := []access.Pattern{
		{Kind: access.Stream, ElemSize: 8},
		{Kind: access.Strided, ElemSize: 8, StrideBytes: 128},
		{Kind: access.Stencil, ElemSize: 8, Points: 5},
	}
	const sBase, sNew = 8 << 20, 16 << 20
	for _, p := range cases {
		// Program accesses scale with the object size, as for a sweep.
		prof := measure(p, sBase, 4e6)
		truth := measure(p, sNew, 8e6)
		alpha := AlphaOffline(p, sBase, sNew)
		est := EstimateAccesses(prof, sBase, sNew, alpha)
		if rel := math.Abs(est-truth) / truth; rel > 0.05 {
			t.Fatalf("%v: Equation 1 estimate %v vs engine truth %v (%.1f%% off)",
				p.Kind, est, truth, rel*100)
		}
	}
	// Random over a growing object: offline α = 1 misestimates (the miss
	// ratio changes with size); one refinement observation fixes it.
	p := access.Pattern{Kind: access.Random, ElemSize: 8}
	prof := measure(p, sBase, 4e6)
	truth := measure(p, sNew, 8e6)
	naive := EstimateAccesses(prof, sBase, sNew, 1)
	r := NewAlphaRefiner()
	if err := r.Observe(prof, sBase, truth, sNew); err != nil {
		t.Fatal(err)
	}
	refined := EstimateAccesses(prof, sBase, sNew, r.Alpha())
	if math.Abs(refined-truth) >= math.Abs(naive-truth) {
		t.Fatalf("refinement should improve the random estimate: naive %v, refined %v, truth %v",
			naive, refined, truth)
	}
}
