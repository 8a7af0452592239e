package ml

import (
	"encoding/json"
	"math"
	"math/rand"
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

// TestCompiledMatchesPointer is the differential acceptance test for
// the compiled engine: across a spread of randomly fitted models —
// deep and shallow trees, forests, GBRs at several worker counts — and
// across their restored-from-artifact forms, every compiled prediction
// must be bit-identical to the pointer walk the model was fitted as.
func TestCompiledMatchesPointer(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		X, y := serializeTrainingSet(200+10*int(seed), 5, seed)
		probe, _ := serializeTrainingSet(333, 5, seed+100)

		tree := NewDecisionTree(TreeConfig{MaxDepth: 3 + int(seed), Seed: seed})
		if err := tree.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		assertBitEqual(t, "tree", probe, tree.root.predict, tree.Predict, tree.PredictAll)

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

// TestCompileExposesEngines covers the public Compile accessors.
func TestCompileExposesEngines(t *testing.T) {
	if _, err := NewDecisionTree(TreeConfig{}).Compile(); err == nil {
		t.Fatal("unfitted tree compiled")
	}
	if _, err := NewRandomForest(ForestConfig{}).Compile(); err == nil {
		t.Fatal("unfitted forest compiled")
	}
	if _, err := NewGradientBoosted(GBRConfig{}).Compile(); err == nil {
		t.Fatal("unfitted gbr compiled")
	}
	X, y := serializeTrainingSet(150, 4, 9)
	g := NewGradientBoosted(GBRConfig{NumStages: 10, MaxDepth: 3, Seed: 9})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	c, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.NumTrees() != 10 {
		t.Fatalf("compiled GBR has %d trees, want 10", c.NumTrees())
	}
	for _, x := range X[:20] {
		if math.Float64bits(c.Predict(x)) != math.Float64bits(g.Predict(x)) {
			t.Fatal("standalone compiled engine disagrees with the model")
		}
	}
}

// TestCompiledDumpRoundTrip asserts Fit's lowering is lossless: the
// compiled table keeps the preorder dump's node indices, so every
// column reads back exactly the node it was compiled from.
func TestCompiledDumpRoundTrip(t *testing.T) {
	X, y := serializeTrainingSet(200, 4, 11)
	tree := NewDecisionTree(TreeConfig{MaxDepth: 7, Seed: 11})
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var nodes []NodeDump
	dumpNode(tree.root, &nodes)
	c, err := compileDump(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumNodes() != len(nodes) {
		t.Fatalf("compiled %d nodes from a %d-node dump", c.NumNodes(), len(nodes))
	}
	for i, nd := range nodes {
		if nd.Leaf {
			if c.feature[i] != leafNode || c.val[i] != nd.Value {
				t.Fatalf("leaf %d does not read back", i)
			}
			continue
		}
		if int(c.feature[i]) != nd.Feature || c.val[i] != nd.Threshold ||
			int(c.left[i]) != nd.Left || int(c.right[i]) != nd.Right {
			t.Fatalf("internal node %d does not read back", i)
		}
	}
}

// TestTreeDumpRoundTrip: a fitted tree's node dump, pushed through its
// JSON encoding and compiled back, predicts bit-identically to the
// pointer tree it was dumped from, row by row and in batch.
func TestTreeDumpRoundTrip(t *testing.T) {
	X, y := serializeTrainingSet(200, 4, 1)
	tree := NewDecisionTree(TreeConfig{MaxDepth: 6, Seed: 7})
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var nodes []NodeDump
	dumpNode(tree.root, &nodes)
	raw, err := json.Marshal(nodes)
	if err != nil {
		t.Fatal(err)
	}
	var back []NodeDump
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	c, err := compileDump(back)
	if err != nil {
		t.Fatal(err)
	}
	probe, _ := serializeTrainingSet(100, 4, 2)
	assertBitEqual(t, "tree dump", probe, tree.root.predict, c.Predict, c.PredictAll)
}

// TestCompiledPredictZeroAllocs is the allocation regression gate for
// the serve hot path: one compiled single-point prediction — raw
// engine and through the model wrapper — must not allocate.
func TestCompiledPredictZeroAllocs(t *testing.T) {
	X, y := serializeTrainingSet(300, 5, 13)
	g := NewGradientBoosted(GBRConfig{NumStages: 50, MaxDepth: 4, Seed: 13})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	c, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	x := X[0]
	var sink float64
	if allocs := testing.AllocsPerRun(200, func() { sink += c.Predict(x) }); allocs != 0 {
		t.Fatalf("compiled engine Predict allocates %.1f/op, want 0", allocs)
	}
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
	_ = sink
}

// FuzzCompileTree feeds arbitrary node tables to the compiler: it must
// reject every malformed table (out-of-range or negative child
// indices, cycles, shared subtrees, unreachable nodes, non-finite
// floats) and produce a terminating, finite engine for every table it
// accepts, whose kernel layout passes the validator LoadFlat runs.
func FuzzCompileTree(f *testing.F) {
	seed := func(nodes []NodeDump) {
		raw, err := json.Marshal(nodes)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	seed([]NodeDump{{Value: 1, Leaf: true}})
	seed([]NodeDump{
		{Feature: 0, Threshold: 1, Left: 1, Right: 2},
		{Value: -1, Leaf: true},
		{Value: 1, Leaf: true},
	})
	seed([]NodeDump{{Feature: 0, Threshold: 1, Left: 0, Right: 9}})
	seed([]NodeDump{{Feature: 1, Threshold: 0.5, Left: 1, Right: 1}, {Value: 2, Leaf: true}})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var nodes []NodeDump
		if err := json.Unmarshal(raw, &nodes); err != nil {
			t.Skip()
		}
		c, err := compileDump(nodes)
		if err != nil {
			return // rejected; nothing to check
		}
		// Accepted tables must be well-formed: every walk terminates at a
		// finite leaf, and the kernel layout validates and agrees.
		maxFeature := 0
		for _, f := range c.feature {
			if int(f) > maxFeature {
				maxFeature = int(f)
			}
		}
		x := make([]float64, maxFeature+1)
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 8; trial++ {
			for j := range x {
				x[j] = rng.NormFloat64() * 100
			}
			if v := c.Predict(x); math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted table predicts non-finite %v", v)
			}
		}
		var nt nodeTable
		nt.appendTree(c)
		if nt.depth[0] > maxTreeDepth {
			return // compiles, but deeper than a flat table may declare
		}
		if err := validateNodeTable(nt.nodes, nt.roots, nt.depth); err != nil {
			t.Fatalf("kernel layout of an accepted table fails validation: %v", err)
		}
		if w, g := c.Predict(x), nt.walk(nt.roots[0], nt.depth[0], x); math.Float64bits(w) != math.Float64bits(g) {
			t.Fatalf("kernel walk %v disagrees with the compiled tree %v", g, w)
		}
	})
}
