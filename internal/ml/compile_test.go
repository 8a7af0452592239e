package ml

import (
	"math"
	"testing"
)

// predict is the pointer walk the compiled engine replaced. It is the
// bit-identity reference: the differential tests and the
// BenchmarkPredictPointer baselines compare every compiled prediction
// against this walk.
func (n *treeNode) predict(x []float64) float64 {
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// predictPointer is the original pointer-walk accumulation, the
// bit-identity reference for the compiled forest.
func (f *RandomForest) predictPointer(x []float64) float64 {
	var s float64
	for _, t := range f.trees {
		s += t.root.predict(x)
	}
	return s / float64(len(f.trees))
}

// predictPointer is the original pointer-walk accumulation, the
// bit-identity reference for the compiled GBR.
func (g *GradientBoosted) predictPointer(x []float64) float64 {
	out := g.base
	for _, t := range g.trees {
		out += g.Config.LearningRate * t.root.predict(x)
	}
	return out
}

// assertBitEqual compares a compiled prediction path against the
// pointer-walk reference, row by row and in batch.
func assertBitEqual(t *testing.T, name string, X [][]float64, pointer func([]float64) float64, single func([]float64) float64, batch func([][]float64) []float64) {
	t.Helper()
	all := batch(X)
	for i, x := range X {
		want := pointer(x)
		got := single(x)
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("%s: row %d single prediction differs: %v vs %v", name, i, want, got)
		}
		if math.Float64bits(want) != math.Float64bits(all[i]) {
			t.Fatalf("%s: row %d batch prediction differs: %v vs %v", name, i, want, all[i])
		}
	}
}

// nonFinite returns copies of rows with one feature set to NaN, +Inf or
// -Inf, each feature in turn.
func nonFinite(rows [][]float64) [][]float64 {
	var out [][]float64
	for j := range rows[0] {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, x := range rows {
				x = append([]float64(nil), x...)
				x[j] = v
				out = append(out, x)
			}
		}
	}
	return out
}

// TestCompiledMatchesPointer is the differential acceptance test for
// the compiled engine: across a spread of randomly fitted models —
// deep and shallow trees, forests, GBRs at several worker counts — and
// across their restored-from-artifact forms, every compiled prediction
// must be bit-identical to the pointer walk the model was fitted as,
// also when a feature is NaN or infinite (a walk that reaches its leaf
// early must stay on it whatever x[0] holds).
func TestCompiledMatchesPointer(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		X, y := serializeTrainingSet(200+10*int(seed), 5, seed)
		probe, _ := serializeTrainingSet(333, 5, seed+100)
		probe = append(probe, nonFinite(probe[:20])...)

		tree := NewDecisionTree(TreeConfig{MaxDepth: 3 + int(seed), Seed: seed})
		if err := tree.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		treeBatch := func(X [][]float64) []float64 { return PredictBatch(tree, X) }
		assertBitEqual(t, "tree", probe, tree.root.predict, tree.Predict, treeBatch)

		forest := NewRandomForest(ForestConfig{NumTrees: 5 + int(seed), MaxDepth: 6, Seed: seed, Workers: int(seed % 3)})
		if err := forest.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		assertBitEqual(t, "forest", probe, forest.predictPointer, forest.Predict, forest.PredictAll)

		gbr := NewGradientBoosted(GBRConfig{NumStages: 20 + 5*int(seed), MaxDepth: 3, Subsample: 0.9, Seed: seed, Workers: int(seed % 4)})
		if err := gbr.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		assertBitEqual(t, "gbr", probe, gbr.predictPointer, gbr.Predict, gbr.PredictAll)

		// Restored models never rebuild pointer trees, so compare them
		// against the original fitted model's pointer walk.
		gf, err := DumpFlat(gbr)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := LoadFlat(wireRoundTrip(t, gf), LoadOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if rg := restored.(*GradientBoosted); rg.trees != nil {
			t.Fatal("restored GBR rebuilt pointer trees; the load path should install the flat table as-is")
		}
		assertBitEqual(t, "restored gbr", probe, gbr.predictPointer, restored.Predict, restored.(BatchRegressor).PredictAll)

		ff, err := DumpFlat(forest)
		if err != nil {
			t.Fatal(err)
		}
		restoredF, err := LoadFlat(wireRoundTrip(t, ff), LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		assertBitEqual(t, "restored forest", probe, forest.predictPointer, restoredF.Predict, restoredF.(BatchRegressor).PredictAll)
	}
}

// TestCompiledPredictZeroAllocs is the allocation regression gate for
// the serve hot path: one single-point prediction through a GBR, a
// forest or a lone tree must not allocate.
func TestCompiledPredictZeroAllocs(t *testing.T) {
	X, y := serializeTrainingSet(300, 5, 13)
	g := NewGradientBoosted(GBRConfig{NumStages: 50, MaxDepth: 4, Seed: 13})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	x := X[0]
	var sink float64
	if allocs := testing.AllocsPerRun(200, func() { sink += g.Predict(x) }); allocs != 0 {
		t.Fatalf("GradientBoosted.Predict allocates %.1f/op, want 0", allocs)
	}
	f := NewRandomForest(ForestConfig{NumTrees: 8, MaxDepth: 5, Seed: 13})
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() { sink += f.Predict(x) }); allocs != 0 {
		t.Fatalf("RandomForest.Predict allocates %.1f/op, want 0", allocs)
	}
	tr := NewDecisionTree(TreeConfig{MaxDepth: 6, Seed: 13})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() { sink += tr.Predict(x) }); allocs != 0 {
		t.Fatalf("DecisionTree.Predict allocates %.1f/op, want 0", allocs)
	}
	_ = sink
}
