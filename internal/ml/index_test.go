package ml

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"merchandiser/internal/obs"
)

// indexVary is the column the split-index tests vary, as the planners
// vary r_dram: the last of indexTrainingSet's four.
const indexVary = 3

// indexTrainingSet is three event-like features in [0, 10) and a ratio
// in [0, 1] in the last column; the target depends on all four. With
// constR the ratio column is constant, so no tree splits on it.
func indexTrainingSet(n int, seed int64, constR bool) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := []float64{10 * rng.Float64(), 10 * rng.Float64(), 10 * rng.Float64(), rng.Float64()}
		if constR {
			x[indexVary] = 0.5
		}
		X[i] = x
		y[i] = math.Sin(x[0]) + 0.5*x[1] + 0.3*x[2]*(1-x[3]) + x[3]*x[3] + 0.1*rng.NormFloat64()
	}
	return X, y
}

// indexedModel is one model under test with its split index.
type indexedModel struct {
	name string
	m    Regressor
	ix   *SplitIndex
}

// indexModels fits the ensembles the index must reproduce — GBRs at
// depths 4 and 6, a depth-8 forest whose trees outgrow one 64-bit state
// word, each fitted and restored from its flat form, and a GBR that
// never splits on the varied column.
func indexModels(t testing.TB) []indexedModel {
	t.Helper()
	X, y := indexTrainingSet(600, 1, false)
	var out []indexedModel
	add := func(name string, m Regressor) {
		if err := m.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		fm, err := DumpFlat(m)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := LoadFlat(&FlatModel{
			Nodes: append([]NodeRec(nil), fm.Nodes...),
			Roots: append([]int32(nil), fm.Roots...),
			Depth: append([]int32(nil), fm.Depth...),
			Meta:  fm.Meta,
		}, LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []indexedModel{{name, m, nil}, {name + "-restored", restored, nil}} {
			ix, ok := NewSplitIndex(v.m)
			if !ok {
				t.Fatalf("%s: no split index", v.name)
			}
			v.ix = ix
			out = append(out, v)
		}
	}
	add("gbr-d4", NewGradientBoosted(GBRConfig{NumStages: 60, MaxDepth: 4, Subsample: 0.9, Seed: 1, Workers: 1}))
	add("gbr-d6", NewGradientBoosted(GBRConfig{NumStages: 30, MaxDepth: 6, Seed: 2, Workers: 1}))
	add("forest-d8", NewRandomForest(ForestConfig{NumTrees: 6, MaxDepth: 8, MinSamplesLeaf: 1, Seed: 3, Workers: 1}))

	Xc, yc := indexTrainingSet(300, 4, true)
	noR := NewGradientBoosted(GBRConfig{NumStages: 30, MaxDepth: 4, Seed: 4, Workers: 1})
	if err := noR.Fit(Xc, yc); err != nil {
		t.Fatal(err)
	}
	ix, _ := NewSplitIndex(noR)
	return append(out, indexedModel{"gbr-no-r", noR, ix})
}

// indexProbe draws a feature vector whose every feature is either a
// uniform draw or one of the model's thresholds on it, possibly one ulp
// off, so binding meets ties as often as plain values.
func indexProbe(rng *rand.Rand, ix *SplitIndex) []float64 {
	x := []float64{10 * rng.Float64(), 10 * rng.Float64(), 10 * rng.Float64(), rng.Float64()}
	for f := range x {
		ts := ix.Thresholds(f)
		if len(ts) == 0 || rng.Intn(2) == 0 {
			continue
		}
		x[f] = ts[rng.Intn(len(ts))]
		switch rng.Intn(3) {
		case 0:
			x[f] = math.Nextafter(x[f], math.Inf(-1))
		case 1:
			x[f] = math.Nextafter(x[f], math.Inf(1))
		}
	}
	return x
}

// indexValues are the values the varied feature takes: 0, 1 and -0,
// every threshold and one ulp either side of it, and the non-finite
// values that search past (or before) every threshold.
func indexValues(ts []float64) []float64 {
	vs := []float64{0, 1, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, t := range ts {
		vs = append(vs, t, math.Nextafter(t, math.Inf(-1)), math.Nextafter(t, math.Inf(1)))
	}
	return vs
}

// checkIndexed binds x with feature f left out and requires the index's
// prediction at each value v, in the order given, to equal Predict's on
// x with x[f] = v: both from a fresh copy of the bound state and from a
// state moved up from the previous value's interval (restarted from the
// bound state whenever the interval falls).
func checkIndexed(t *testing.T, im indexedModel, x []float64, f int, vals []float64) {
	t.Helper()
	bound := make([]uint64, im.ix.Words())
	fresh := make([]uint64, im.ix.Words())
	moved := make([]uint64, im.ix.Words())
	im.ix.Bind(bound, x, f)
	at := -1
	x = append([]float64(nil), x...)
	ts := im.ix.Thresholds(f)
	for _, v := range vals {
		x[f] = v
		want := im.m.Predict(x)
		k := sort.SearchFloat64s(ts, v)
		copy(fresh, bound)
		if got := im.ix.Predict(fresh, f, 0, k); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: x=%v varying feature %d: index %v, Predict %v", im.name, x, f, got, want)
		}
		if at < 0 || k < at {
			copy(moved, bound)
			at = 0
		}
		if got := im.ix.Predict(moved, f, at, k); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: x=%v varying feature %d, moved up from interval %d: index %v, Predict %v", im.name, x, f, at, got, want)
		}
		at = k
	}
}

// TestSplitIndexMatchesPredict is the index's differential test: for
// every model, random vectors and every feature as the varied one, the
// index's prediction has Predict's exact bits.
func TestSplitIndexMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, im := range indexModels(t) {
		for trial := 0; trial < 12; trial++ {
			x := indexProbe(rng, im.ix)
			for f := range x {
				checkIndexed(t, im, x, f, indexValues(im.ix.Thresholds(f)))
			}
		}
	}
}

// TestSplitIndexShape: the depth-8 forest's trees take several state
// words, the model fitted on a constant ratio column has no thresholds
// there, and other models have no index.
func TestSplitIndexShape(t *testing.T) {
	for _, im := range indexModels(t) {
		trees := len(im.ix.treeWords) - 1
		switch im.name {
		case "forest-d8", "forest-d8-restored":
			if im.ix.Words() <= trees {
				t.Fatalf("%s: %d words for %d trees; want multi-word trees", im.name, im.ix.Words(), trees)
			}
		case "gbr-no-r":
			if ts := im.ix.Thresholds(indexVary); len(ts) != 0 {
				t.Fatalf("%s: %d thresholds on the constant column", im.name, len(ts))
			}
		default:
			if im.ix.Words() != trees {
				t.Fatalf("%s: %d words for %d trees of at most 64 leaves", im.name, im.ix.Words(), trees)
			}
		}
	}
	X, y := indexTrainingSet(60, 6, false)
	for _, m := range []Regressor{NewSVR(SVRConfig{Seed: 1}), NewDecisionTree(TreeConfig{Seed: 1})} {
		if err := m.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		if _, ok := NewSplitIndex(m); ok {
			t.Fatalf("%s has a split index", m.Name())
		}
	}
}

// TestSplitIndexPredictZeroAllocs is the allocation gate of one indexed
// evaluation, the planners' miss path: counted on the GBR's prediction
// counter, and allocation-free for a GBR and a multi-word forest.
func TestSplitIndexPredictZeroAllocs(t *testing.T) {
	X, y := indexTrainingSet(600, 7, false)
	reg := obs.New()
	g := NewGradientBoosted(GBRConfig{NumStages: 50, MaxDepth: 4, Seed: 7, Obs: reg})
	rf := NewRandomForest(ForestConfig{NumTrees: 4, MaxDepth: 8, MinSamplesLeaf: 1, Seed: 7})
	var sink float64
	for _, m := range []Regressor{g, rf} {
		if err := m.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		ix, _ := NewSplitIndex(m)
		state := make([]uint64, ix.Words())
		ix.Bind(state, X[0], indexVary)
		k := len(ix.Thresholds(indexVary)) / 2
		if allocs := testing.AllocsPerRun(200, func() { sink += ix.Predict(state, indexVary, 0, k) }); allocs != 0 {
			t.Fatalf("%s: SplitIndex.Predict allocates %.1f/op, want 0", m.Name(), allocs)
		}
	}
	before := reg.Counter("ml.gbr.predictions").Value()
	ix, _ := NewSplitIndex(g)
	state := make([]uint64, ix.Words())
	ix.Bind(state, X[0], indexVary)
	sink += ix.Predict(state, indexVary, 0, 0)
	if got := reg.Counter("ml.gbr.predictions").Value() - before; got != 1 {
		t.Fatalf("one indexed evaluation counted %v predictions, want 1", got)
	}
	_ = sink
}

// FuzzSplitIndexMatchesPredict: for any probe vector (drawn from seed),
// any varied feature (seed mod 4, so the corpus's NaN at seed 4 lands on
// feature 0) and any value r of it, the index predicts Predict's exact
// bits.
func FuzzSplitIndexMatchesPredict(f *testing.F) {
	for i, r := range []float64{0, 1, math.Copysign(0, -1), 0.5, math.NaN(), math.Inf(1), math.Inf(-1), 1e-300} {
		f.Add(int64(i), r)
	}
	var models []indexedModel
	for _, im := range indexModels(f) {
		if im.name != "gbr-d6" && im.name != "forest-d8" {
			models = append(models, im)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, r float64) {
		rng := rand.New(rand.NewSource(seed))
		vary := int(uint64(seed) % 4)
		for _, im := range models {
			checkIndexed(t, im, indexProbe(rng, im.ix), vary, []float64{r})
		}
	})
}

// BenchmarkSplitIndex compares one evaluation at a new value of the last
// feature of a 150-stage GBR: a full walk ("walk"), the split index from
// a fresh copy of the bound state ("index"), and the index moving its
// state up one threshold interval at a time ("index-up"), as Algorithm
// 1 grows a task's grant. "bind" times one binding of the other
// features.
func BenchmarkSplitIndex(b *testing.B) {
	g, X := benchGBR(b)
	ix, _ := NewSplitIndex(g)
	last := len(X[0]) - 1
	ts := ix.Thresholds(last)
	vals := make([]float64, 64)
	ks := make([]int, len(vals))
	for i := range vals {
		vals[i] = 2*float64(i)/float64(len(vals)) - 1
		ks[i] = sort.SearchFloat64s(ts, vals[i])
	}
	x := append([]float64(nil), X[0]...)
	bound := make([]uint64, ix.Words())
	state := make([]uint64, ix.Words())
	ix.Bind(bound, x, last)
	var sink float64
	b.Run("walk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			x[last] = vals[i%len(vals)]
			sink += g.Predict(x)
		}
	})
	b.Run("index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(state, bound)
			sink += ix.Predict(state, last, 0, ks[i%len(ks)])
		}
	})
	b.Run("index-up", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := i % len(ks)
			from := 0
			if j == 0 {
				copy(state, bound)
			} else {
				from = ks[j-1]
			}
			sink += ix.Predict(state, last, from, ks[j])
		}
	})
	b.Run("bind", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix.Bind(bound, x, last)
		}
	})
	_ = sink
}
