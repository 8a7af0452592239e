package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"merchandiser/internal/hm"
	"merchandiser/internal/pmc"
	"merchandiser/internal/task"
)

// quickCfg is the reduced-scale configuration with a finer step so tiny
// quick-mode instances are not step-quantized.
func quickCfg() Config { return Config{Quick: true, Seed: 1, StepSec: 0.0005} }

func TestTable1RendersAllApps(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf, quickCfg()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, app := range AppNames {
		if !strings.Contains(out, app) {
			t.Fatalf("Table 1 missing %s:\n%s", app, out)
		}
	}
	// The paper's per-app pattern pairs.
	for _, want := range []string{"Stream, Random", "Strided, Stencil", "Stream, Strided"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 missing pattern pair %q:\n%s", want, out)
		}
	}
}

func TestTable2FootprintsExceedDRAM(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2(&buf, quickCfg()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "x DRAM") {
		t.Fatalf("Table 2 output malformed:\n%s", buf.String())
	}
}

func TestFig3PhaseSensitivityShape(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig3(context.Background(), &buf, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig3Row{}
	for _, r := range rows {
		byName[r.Phase] = r
	}
	wb, ok1 := byName["writeback"]
	is, ok2 := byName["index-search"]
	ip, ok3 := byName["input-processing"]
	entire, ok4 := byName["entire"]
	if !ok1 || !ok2 || !ok3 || !ok4 {
		t.Fatalf("missing phases in %v", rows)
	}
	// The paper's Figure 3 shape: writeback is by far the most sensitive
	// phase; index search the least; the entire task in between.
	if !(wb.T50 < ip.T50 && ip.T50 < is.T50) {
		t.Fatalf("phase sensitivity order wrong: writeback %.3f, input %.3f, index %.3f",
			wb.T50, ip.T50, is.T50)
	}
	if wb.T50 > 0.65 {
		t.Fatalf("writeback at 50%% DRAM should improve strongly, got %.3f", wb.T50)
	}
	if entire.T50 < wb.T50 || entire.T50 > is.T50 {
		t.Fatalf("entire task (%.3f) should sit between extremes [%.3f, %.3f]",
			entire.T50, wb.T50, is.T50)
	}
	// Monotone in DRAM ratio for every phase.
	for _, r := range rows {
		if !(r.T100 <= r.T50+1e-9 && r.T50 <= r.T0+1e-9) {
			t.Fatalf("phase %s not monotone: %.3f %.3f %.3f", r.Phase, r.T0, r.T50, r.T100)
		}
	}
}

// evalOnce caches the quick evaluation across tests in this package run.
var cachedEval *Eval
var cachedArt *Artifacts

func quickEval(t *testing.T) (*Artifacts, *Eval) {
	t.Helper()
	if cachedEval != nil {
		return cachedArt, cachedEval
	}
	art, err := Prepare(context.Background(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	eval, err := RunEvaluation(context.Background(), art, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	cachedArt, cachedEval = art, eval
	return art, eval
}

func TestEvaluationCompletes(t *testing.T) {
	_, eval := quickEval(t)
	for _, app := range AppNames {
		for _, pol := range PolicyNames {
			run := eval.Runs[app][pol]
			if run == nil || run.TotalTime <= 0 {
				t.Fatalf("%s under %s missing or empty", app, pol)
			}
		}
	}
	if eval.Runs["SpGEMM"]["Sparta"] == nil {
		t.Fatal("Sparta run missing for SpGEMM")
	}
	if eval.Runs["WarpX"]["WarpX-PM"] == nil {
		t.Fatal("WarpX-PM run missing for WarpX")
	}
}

func TestFig4HeadlineShape(t *testing.T) {
	_, eval := quickEval(t)
	var buf bytes.Buffer
	Fig4(&buf, eval)
	if !strings.Contains(buf.String(), "average") {
		t.Fatalf("Figure 4 output malformed:\n%s", buf.String())
	}
	// Headline: Merchandiser is the best generic policy on average
	// (allowing quick-mode quantization slack).
	merch := eval.MeanSpeedup("Merchandiser")
	mo := eval.MeanSpeedup("MemoryOptimizer")
	if merch <= 1.0 {
		t.Fatalf("Merchandiser mean speedup %.3f should beat PM-only", merch)
	}
	if merch < mo*0.95 {
		t.Fatalf("Merchandiser (%.3f) should not trail MemoryOptimizer (%.3f)", merch, mo)
	}
}

func TestFig5AndFig6Render(t *testing.T) {
	_, eval := quickEval(t)
	var buf bytes.Buffer
	Fig5(&buf, eval)
	if !strings.Contains(buf.String(), "A.C.V reduction") {
		t.Fatalf("Figure 5 output malformed:\n%s", buf.String())
	}
	buf.Reset()
	Fig6(&buf, eval)
	out := buf.String()
	if !strings.Contains(out, "avg DRAM") || !strings.Contains(out, "timeline") {
		t.Fatalf("Figure 6 output malformed:\n%s", out)
	}
	// Merchandiser should not leave DRAM bandwidth idle relative to
	// MemoryMode on WarpX (the §7.2 DRAM-utilization claim).
	merchD := AvgBandwidth(eval.Runs["WarpX"]["Merchandiser"], hm.DRAM)
	if merchD <= 0 {
		t.Fatalf("Merchandiser WarpX DRAM bandwidth = %v", merchD)
	}
}

func TestTable3ModelSelection(t *testing.T) {
	art, _ := quickEval(t)
	var buf bytes.Buffer
	rows, err := Table3(context.Background(), &buf, art, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("Table 3 rows = %d, want 6", len(rows))
	}
	best := rows[0]
	for _, r := range rows {
		if r.R2 > best.R2 {
			best = r
		}
	}
	// The paper selects GBR; ensembles and the ANN should lead.
	if best.Model != "GBR" && best.Model != "ANN" && best.Model != "RFR" {
		t.Fatalf("best model is %s (%.3f) — expected an ensemble/ANN", best.Model, best.R2)
	}
	if best.R2 < 0.6 {
		t.Fatalf("best model R2 = %.3f, too low", best.R2)
	}
}

func TestFig7EventAblation(t *testing.T) {
	art, _ := quickEval(t)
	var buf bytes.Buffer
	points, err := Fig7(context.Background(), &buf, art, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 16 {
		t.Fatalf("points = %d, want 16 (one per event count)", len(points))
	}
	// Each step drops one event that was still active, so the counts
	// fall 16, 15, …, 1 and the last point drops nothing.
	active := map[string]bool{}
	for _, e := range pmc.AllEvents {
		active[e] = true
	}
	for i, p := range points {
		if want := len(points) - i; p.Events != want {
			t.Fatalf("point %d has %d events, want %d", i, p.Events, want)
		}
		if i == len(points)-1 {
			if p.Dropped != "" {
				t.Fatalf("last point drops %q, want nothing", p.Dropped)
			}
			break
		}
		if !active[p.Dropped] {
			t.Fatalf("point %d drops %q, not an event still active", i, p.Dropped)
		}
		delete(active, p.Dropped)
	}
	all := points[0]
	var at8, at1 Fig7Point
	for _, p := range points {
		if p.Events == 8 {
			at8 = p
		}
		if p.Events == 1 {
			at1 = p
		}
	}
	// The paper's finding: 8 events ≈ all events; very few events lose
	// accuracy.
	if at8.RegularR2 < all.RegularR2-0.08 || at8.IrregularR2 < all.IrregularR2-0.08 {
		t.Fatalf("8 events (%.3f/%.3f) should be close to all events (%.3f/%.3f)",
			at8.RegularR2, at8.IrregularR2, all.RegularR2, all.IrregularR2)
	}
	if at1.IrregularR2 > at8.IrregularR2-0.02 && at1.RegularR2 > at8.RegularR2-0.02 {
		t.Fatalf("a single event (%.3f/%.3f) should not match 8 events (%.3f/%.3f)",
			at1.RegularR2, at1.IrregularR2, at8.RegularR2, at8.IrregularR2)
	}
}

func TestTable4ModelBeatsComparator(t *testing.T) {
	_, eval := quickEval(t)
	var buf bytes.Buffer
	rows, err := Table4(&buf, eval)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AppNames) {
		t.Fatalf("Table 4 rows = %d", len(rows))
	}
	wins := 0
	for _, r := range rows {
		if r.Model >= r.Regression {
			wins++
		}
	}
	if wins < 3 {
		t.Fatalf("performance model should beat the size-ratio comparator on most apps, won %d of %d", wins, len(rows))
	}
}

func TestAlphaStudyRenders(t *testing.T) {
	_, eval := quickEval(t)
	var buf bytes.Buffer
	if err := AlphaStudy(&buf, eval); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "alpha") {
		t.Fatalf("alpha output malformed:\n%s", buf.String())
	}
}

func TestBuildAppRejectsUnknown(t *testing.T) {
	if _, err := BuildApp("nope", quickCfg()); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := buildPolicy("nope", &Artifacts{}, quickCfg(), nil); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestAblationsShape(t *testing.T) {
	art, _ := quickEval(t)
	var buf bytes.Buffer
	rows, err := Ablations(context.Background(), &buf, art, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, r := range rows {
		if r.TotalTime <= 0 {
			t.Fatalf("variant %q has empty run", r.Variant)
		}
		byName[r.Variant] = r.TotalTime
	}
	full := byName["merchandiser (5% step)"]
	if full == 0 {
		t.Fatalf("baseline variant missing: %v", byName)
	}
	// The full design must not lose badly to any ablated variant.
	for name, v := range byName {
		if full > v*1.15 {
			t.Fatalf("full design (%v) loses >15%% to %q (%v)", full, name, v)
		}
	}
}

func TestEvaluationDeterminism(t *testing.T) {
	art, eval1 := quickEval(t)
	eval2, err := RunEvaluation(context.Background(), art, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range AppNames {
		for _, pol := range PolicyNames {
			a := eval1.Runs[app][pol]
			b := eval2.Runs[app][pol]
			if a.TotalTime != b.TotalTime {
				t.Fatalf("%s/%s: %v vs %v — evaluation not deterministic",
					app, pol, a.TotalTime, b.TotalTime)
			}
		}
	}
}

func TestHeadlineRobustAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed evaluation is slow")
	}
	// The headline ordering (Merchandiser is the best generic policy on
	// average) must hold for several seeds, not just the default.
	for _, seed := range []int64{2, 3} {
		cfg := Config{Quick: true, Seed: seed, StepSec: 0.0005}
		art, err := Prepare(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		eval, err := RunEvaluation(context.Background(), art, cfg)
		if err != nil {
			t.Fatal(err)
		}
		merch := eval.MeanSpeedup("Merchandiser")
		mo := eval.MeanSpeedup("MemoryOptimizer")
		mm := eval.MeanSpeedup("MemoryMode")
		if merch <= 1.0 {
			t.Fatalf("seed %d: Merchandiser %.3f should beat PM-only", seed, merch)
		}
		if merch < mo*0.93 || merch < mm*0.93 {
			t.Fatalf("seed %d: Merchandiser %.3f trails a baseline (MO %.3f, MM %.3f)",
				seed, merch, mo, mm)
		}
	}
}

// TestFullScaleGoldenShapes pins the EXPERIMENTS.md headline claims at
// full scale. Slow (~40s); skipped under -short.
func TestFullScaleGoldenShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale evaluation is slow")
	}
	cfg := Config{Seed: 1}
	art, err := Prepare(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if art.TestR2 < 0.85 {
		t.Fatalf("full-corpus correlation R2 = %.3f, want > 0.85", art.TestR2)
	}
	eval, err := RunEvaluation(context.Background(), art, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Average ordering: Merchandiser > MemoryOptimizer > MemoryMode > 1.
	merch := eval.MeanSpeedup("Merchandiser")
	mo := eval.MeanSpeedup("MemoryOptimizer")
	mm := eval.MeanSpeedup("MemoryMode")
	if !(merch > mo && mo > mm && mm > 1) {
		t.Fatalf("ordering broken: merch %.3f, mo %.3f, mm %.3f", merch, mo, mm)
	}
	// Per-app paper observations.
	if eval.Speedup("SpGEMM", "Merchandiser") <= eval.Speedup("SpGEMM", "Sparta") {
		t.Fatal("Merchandiser should beat Sparta on SpGEMM")
	}
	if eval.Speedup("WarpX", "WarpX-PM") <= eval.Speedup("WarpX", "Merchandiser") {
		t.Fatal("the manual WarpX-PM oracle should edge out Merchandiser on WarpX")
	}
	for _, app := range []string{"WarpX", "DMRG"} { // regular apps: beat MemoryOptimizer
		if eval.Speedup(app, "Merchandiser") <= eval.Speedup(app, "MemoryOptimizer") {
			t.Fatalf("%s: Merchandiser should beat MemoryOptimizer on regular apps", app)
		}
	}
	for _, app := range []string{"SpGEMM", "BFS", "NWChem-TC"} { // irregular: beat MemoryMode clearly
		if eval.Speedup(app, "Merchandiser") < eval.Speedup(app, "MemoryMode")*1.1 {
			t.Fatalf("%s: Merchandiser should beat MemoryMode clearly on irregular apps", app)
		}
	}
	// Load balance: SpGEMM A.C.V under Merchandiser far below MemoryOptimizer.
	if eval.Runs["SpGEMM"]["Merchandiser"].ACV >= eval.Runs["SpGEMM"]["MemoryOptimizer"].ACV {
		t.Fatal("Merchandiser should cut SpGEMM task-time variance vs MemoryOptimizer")
	}
	// Migration spread exists for the imbalanced apps under MemoryOptimizer.
	sp := eval.Runs["NWChem-TC"]["MemoryOptimizer"]
	if sp.MigMin == 0 || float64(sp.MigMax)/float64(sp.MigMin) < 2 {
		t.Fatalf("NWChem-TC migration spread = %d/%d, expected a clear imbalance", sp.MigMax, sp.MigMin)
	}
}

func TestSummaryJSONRoundTrip(t *testing.T) {
	art, eval := quickEval(t)
	sum := Summarize(art, eval, quickCfg())
	var buf bytes.Buffer
	if err := sum.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Apps) != len(AppNames) {
		t.Fatalf("apps = %d", len(back.Apps))
	}
	if back.MeanSpeedup["Merchandiser"] != eval.MeanSpeedup("Merchandiser") {
		t.Fatal("mean speedup lost in round trip")
	}
	for _, a := range back.Apps {
		if len(a.Policies) < len(PolicyNames) {
			t.Fatalf("%s has %d policies", a.App, len(a.Policies))
		}
		for _, p := range a.Policies {
			if p.TotalSeconds <= 0 {
				t.Fatalf("%s/%s empty total", a.App, p.Policy)
			}
		}
	}
}

func TestCXLExtensibility(t *testing.T) {
	var buf bytes.Buffer
	eval, err := CXL(context.Background(), &buf, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	merch := eval.MeanSpeedup("Merchandiser")
	if merch <= 1.0 {
		t.Fatalf("Merchandiser on CXL %.3f should beat CXL-only", merch)
	}
	if merch < eval.MeanSpeedup("MemoryMode")*0.95 {
		t.Fatalf("Merchandiser (%.3f) should not trail MemoryMode on CXL", merch)
	}
	if !strings.Contains(buf.String(), "retrained") {
		t.Fatalf("CXL output malformed:\n%s", buf.String())
	}
	// A smaller tier gap means less headroom than the Optane platform.
	_, optane := quickEval(t)
	if merch > optane.MeanSpeedup("Merchandiser")*1.3 {
		t.Fatalf("CXL headroom (%.3f) should not exceed Optane's (%.3f) substantially",
			merch, optane.MeanSpeedup("Merchandiser"))
	}
}

// TestEvaluationSurfacesAllErrors checks that one failing application does
// not mask another's failure: both errors appear in the joined result.
func TestEvaluationSurfacesAllErrors(t *testing.T) {
	saved := buildAppHook
	defer func() { buildAppHook = saved }()
	buildAppHook = func(name string, cfg Config) (task.App, error) {
		switch name {
		case "SpGEMM":
			return nil, errors.New("spgemm exploded")
		case "DMRG":
			return nil, errors.New("dmrg exploded")
		}
		return buildAppDefault(name, cfg)
	}
	// Workers > 1 exercises the pooled schedule where errors land from
	// different goroutines.
	art, _ := quickEval(t)
	_, err := RunEvaluation(context.Background(), art, Config{Quick: true, Seed: 1, StepSec: 0.0005, Workers: 4})
	if err == nil {
		t.Fatal("expected an error")
	}
	for _, want := range []string{"spgemm exploded", "dmrg exploded"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("joined error misses %q: %v", want, err)
		}
	}
}
