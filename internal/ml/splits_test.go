package ml

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// namedRegressor is one model under test.
type namedRegressor struct {
	name string
	m    Regressor
}

// fittedEnsembles fits one GBR and one forest on the same 5-feature set.
func fittedEnsembles(t *testing.T, seed int64) []namedRegressor {
	t.Helper()
	X, y := serializeTrainingSet(240, 5, seed)
	gbr := NewGradientBoosted(GBRConfig{NumStages: 40, MaxDepth: 4, Subsample: 0.9, Seed: seed})
	if err := gbr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	forest := NewRandomForest(ForestConfig{NumTrees: 8, MaxDepth: 6, Seed: seed})
	if err := forest.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	return []namedRegressor{{"gbr", gbr}, {"forest", forest}}
}

// indexThresholds is feature f's thresholds from m's split index; ok
// is false when m has none.
func indexThresholds(m Regressor, f int) ([]float64, bool) {
	ix, ok := NewSplitIndex(m)
	if !ok {
		return nil, false
	}
	return ix.Thresholds(f), true
}

// pointerSplits collects feature f's thresholds from the fitted pointer
// trees, the form the compiled tables were lowered from.
func pointerSplits(m Regressor, f int) []float64 {
	var trees []*DecisionTree
	switch v := m.(type) {
	case *GradientBoosted:
		trees = v.trees
	case *RandomForest:
		trees = v.trees
	}
	var ts []float64
	var visit func(n *treeNode)
	visit = func(n *treeNode) {
		if n.leaf {
			return
		}
		if n.feature == f {
			ts = append(ts, n.threshold)
		}
		visit(n.left)
		visit(n.right)
	}
	for _, tr := range trees {
		visit(tr.root)
	}
	sort.Float64s(ts)
	return slices.Compact(ts)
}

// TestSplitThresholdsSortedDistinct: every feature's thresholds are
// strictly increasing and are exactly the splits of the fitted trees on
// that feature; a feature no tree splits on has none.
func TestSplitThresholdsSortedDistinct(t *testing.T) {
	for _, nm := range fittedEnsembles(t, 3) {
		name, m := nm.name, nm.m
		for f := 0; f < 5; f++ {
			ts, ok := indexThresholds(m, f)
			if !ok {
				t.Fatalf("%s: feature %d reports no thresholds", name, f)
			}
			for i := 1; i < len(ts); i++ {
				if !(ts[i-1] < ts[i]) {
					t.Fatalf("%s: feature %d thresholds not strictly increasing at %d: %v, %v", name, f, i, ts[i-1], ts[i])
				}
			}
			if want := pointerSplits(m, f); !slices.Equal(ts, want) {
				t.Fatalf("%s: feature %d: index gives %d thresholds, trees split at %d", name, f, len(ts), len(want))
			}
		}
		if ts, _ := indexThresholds(m, 0); len(ts) == 0 {
			t.Fatalf("%s: no splits on the dominant feature 0", name)
		}
		if ts, ok := indexThresholds(m, 99); !ok || len(ts) != 0 {
			t.Fatalf("%s: an absent feature gives %d thresholds (ok=%v), want none", name, len(ts), ok)
		}
	}
}

// TestSplitThresholdsSurviveFlatRoundTrip: a restored model, which has
// no pointer trees, reports the same thresholds bit for bit.
func TestSplitThresholdsSurviveFlatRoundTrip(t *testing.T) {
	for _, nm := range fittedEnsembles(t, 4) {
		name, m := nm.name, nm.m
		fm, err := DumpFlat(m)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := LoadFlat(wireRoundTrip(t, fm), LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 5; f++ {
			want, _ := indexThresholds(m, f)
			got, ok := indexThresholds(restored, f)
			if !ok || len(got) != len(want) {
				t.Fatalf("%s: feature %d: restored gives %d thresholds (ok=%v), fitted %d", name, f, len(got), ok, len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: feature %d threshold %d: restored %v, fitted %v", name, f, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSplitThresholdsNoneWithoutNodeTable: models without a compiled
// ensemble table, and unfitted ensembles, report no thresholds.
func TestSplitThresholdsNoneWithoutNodeTable(t *testing.T) {
	X, y := serializeTrainingSet(60, 3, 5)
	for _, m := range []Regressor{
		NewSVR(SVRConfig{Seed: 1}),
		NewKNN(KNNConfig{}),
		NewMLP(MLPConfig{HiddenLayers: []int{8}, Epochs: 5, Seed: 1}),
		NewDecisionTree(TreeConfig{Seed: 1}),
	} {
		if err := m.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		if ts, ok := indexThresholds(m, 2); ok || ts != nil {
			t.Fatalf("%s reports thresholds %v (ok=%v)", m.Name(), ts, ok)
		}
	}
	for _, m := range []Regressor{NewGradientBoosted(GBRConfig{}), NewRandomForest(ForestConfig{})} {
		if _, ok := indexThresholds(m, 0); ok {
			t.Fatalf("unfitted %s reports thresholds", m.Name())
		}
	}
}

// TestSplitThresholdsIntervalProperty is the fact the planner memo rests
// on: on random rows, replacing x[f] with any value of the same
// interval (t_{k-1}, t_k] — its upper threshold included — leaves the
// prediction's bits unchanged.
func TestSplitThresholdsIntervalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	probe, _ := serializeTrainingSet(40, 5, 12)
	for _, nm := range fittedEnsembles(t, 6) {
		name, m := nm.name, nm.m
		for f := 0; f < 5; f++ {
			ts, _ := indexThresholds(m, f)
			for _, row := range probe {
				x := append([]float64(nil), row...)
				k := rng.Intn(len(ts) + 1)
				// The interval's bounds; the outer ones are open-ended.
				lo, hi := math.Inf(-1), math.Inf(1)
				if k > 0 {
					lo = ts[k-1]
				}
				if k < len(ts) {
					hi = ts[k]
				}
				var vals []float64
				switch {
				case k == 0 && k == len(ts):
					vals = []float64{-1e9, 0, 1e9}
				case k == 0:
					vals = []float64{hi, hi - 1, hi - 1e6, math.Nextafter(hi, math.Inf(-1))}
				case k == len(ts):
					vals = []float64{math.Nextafter(lo, math.Inf(1)), lo + 1, lo + 1e6}
				default:
					vals = []float64{hi, math.Nextafter(lo, math.Inf(1)), lo + (hi-lo)*rng.Float64()}
				}
				var want uint64
				for j, v := range vals {
					if v <= lo || v > hi {
						continue // a random draw rounded onto a bound
					}
					if got := sort.SearchFloat64s(ts, v); got != k {
						t.Fatalf("%s: %v searches to interval %d, want %d", name, v, got, k)
					}
					x[f] = v
					bits := math.Float64bits(m.Predict(x))
					if j == 0 {
						want = bits
					} else if bits != want {
						t.Fatalf("%s: feature %d interval %d: x[f]=%v predicts %v, x[f]=%v predicts %v",
							name, f, k, vals[0], math.Float64frombits(want), v, math.Float64frombits(bits))
					}
				}
			}
		}
	}
}
