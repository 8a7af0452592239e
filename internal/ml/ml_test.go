package ml

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"merchandiser/internal/merr"
)

// synth generates a nonlinear regression problem with d features, of which
// only the first `informative` matter.
func synth(n, d, informative int, noise float64, seed int64) ([][]float64, []float64) {
	r := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		for j := range row {
			row[j] = r.Float64()*2 - 1
		}
		X[i] = row
		v := 0.0
		if informative > 0 {
			v += 3 * row[0]
		}
		if informative > 1 {
			v += 2 * row[1] * row[1]
		}
		if informative > 2 {
			v += math.Sin(3 * row[2])
		}
		for j := 3; j < informative; j++ {
			v += 0.5 * row[j]
		}
		y[i] = v + r.NormFloat64()*noise
	}
	return X, y
}

func fitAndScore(t *testing.T, m Regressor, seed int64) float64 {
	t.Helper()
	X, y := synth(600, 6, 3, 0.05, seed)
	Xtr, ytr, Xte, yte, err := TrainTestSplit(X, y, 0.7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(Xtr, ytr); err != nil {
		t.Fatal(err)
	}
	r2, err := R2Score(m, Xte, yte)
	if err != nil {
		t.Fatal(err)
	}
	return r2
}

func TestDecisionTreeLearns(t *testing.T) {
	r2 := fitAndScore(t, NewDecisionTree(TreeConfig{MaxDepth: 10}), 2)
	if r2 < 0.7 {
		t.Fatalf("DTR R2 = %v, want > 0.7", r2)
	}
}

func TestRandomForestBeatsSingleTree(t *testing.T) {
	tree := fitAndScore(t, NewDecisionTree(TreeConfig{MaxDepth: 10}), 3)
	forest := fitAndScore(t, NewRandomForest(ForestConfig{NumTrees: 20, MaxDepth: 10, Seed: 3}), 3)
	if forest <= tree {
		t.Fatalf("RFR (%v) should beat DTR (%v) — the Table 3 ordering", forest, tree)
	}
	if forest < 0.85 {
		t.Fatalf("RFR R2 = %v, want > 0.85", forest)
	}
}

func TestGradientBoostedHighAccuracy(t *testing.T) {
	r2 := fitAndScore(t, NewGradientBoosted(GBRConfig{Seed: 4}), 4)
	if r2 < 0.9 {
		t.Fatalf("GBR R2 = %v, want > 0.9 (the paper's best model)", r2)
	}
}

func TestKNNLearns(t *testing.T) {
	r2 := fitAndScore(t, NewKNN(KNNConfig{K: 8}), 5)
	if r2 < 0.6 {
		t.Fatalf("KNR R2 = %v, want > 0.6", r2)
	}
}

func TestSVRLearns(t *testing.T) {
	r2 := fitAndScore(t, NewSVR(SVRConfig{Seed: 6}), 6)
	if r2 < 0.7 {
		t.Fatalf("SVR R2 = %v, want > 0.7", r2)
	}
}

func TestMLPLearns(t *testing.T) {
	cfg := MLPConfig{HiddenLayers: []int{64, 16}, Epochs: 120, Seed: 7}
	r2 := fitAndScore(t, NewMLP(cfg), 7)
	if r2 < 0.85 {
		t.Fatalf("ANN R2 = %v, want > 0.85", r2)
	}
}

func TestModelNames(t *testing.T) {
	names := map[string]Regressor{
		"DTR": NewDecisionTree(TreeConfig{}),
		"RFR": NewRandomForest(ForestConfig{}),
		"GBR": NewGradientBoosted(GBRConfig{}),
		"KNR": NewKNN(KNNConfig{}),
		"SVR": NewSVR(SVRConfig{}),
		"ANN": NewMLP(MLPConfig{}),
	}
	for want, m := range names {
		if m.Name() != want {
			t.Fatalf("Name() = %q, want %q", m.Name(), want)
		}
		// Unfitted models predict 0 rather than panicking.
		if got := m.Predict([]float64{1, 2, 3}); got != 0 {
			t.Fatalf("unfitted %s predicts %v", want, got)
		}
	}
}

func TestFitValidation(t *testing.T) {
	models := []Regressor{
		NewDecisionTree(TreeConfig{}),
		NewRandomForest(ForestConfig{NumTrees: 2}),
		NewGradientBoosted(GBRConfig{NumStages: 2}),
		NewKNN(KNNConfig{}),
		NewSVR(SVRConfig{MaxIter: 10}),
		NewMLP(MLPConfig{Epochs: 1}),
	}
	for _, m := range models {
		if err := m.Fit(nil, nil); err == nil {
			t.Fatalf("%s accepted empty training set", m.Name())
		}
		if err := m.Fit([][]float64{{1, 2}}, []float64{1, 2}); err == nil {
			t.Fatalf("%s accepted mismatched lengths", m.Name())
		}
		if err := m.Fit([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
			t.Fatalf("%s accepted ragged rows", m.Name())
		}
	}
}

// Every model family rejects a training row holding NaN or +Inf with a
// plain error naming the row and the column, before fitting anything —
// including a paced fit, whose bad row sits in a group after its first
// prefix. None of these rejections may classify as a bad artifact.
func TestFitRejectsNonFiniteData(t *testing.T) {
	const badRow, groupRows = 97, 40
	fits := []struct {
		name string
		fit  func(X [][]float64, y []float64) error
	}{
		{"DTR", NewDecisionTree(TreeConfig{}).Fit},
		{"GBR", NewGradientBoosted(GBRConfig{NumStages: 4}).Fit},
		{"GBR/FitPaced", func(X [][]float64, y []float64) error {
			// A producer pushes groups until one is refused and closes
			// the feed with that error, as streamed training does.
			feed := NewFeed()
			var pushErr error
			for lo := 0; lo < len(X) && pushErr == nil; lo += groupRows {
				pushErr = feed.Push(X[lo:lo+groupRows], y[lo:lo+groupRows])
			}
			if pushErr == nil {
				t.Error("the feed accepted a group holding a non-finite value")
			}
			feed.Close(pushErr)
			g := NewGradientBoosted(GBRConfig{NumStages: 6})
			err := g.FitPaced(context.Background(), feed, PaceConfig{Groups: len(X) / groupRows})
			if err != nil && g.fitted {
				t.Fatal("a failed paced fit left the model fitted")
			}
			return err
		}},
		{"RFR", NewRandomForest(ForestConfig{NumTrees: 2}).Fit},
		{"KNR", NewKNN(KNNConfig{}).Fit},
		{"SVR", NewSVR(SVRConfig{MaxIter: 10}).Fit},
		{"ANN", NewMLP(MLPConfig{Epochs: 1}).Fit},
	}
	corruptions := []struct {
		name, column string
		apply        func(X [][]float64, y []float64)
	}{
		{"nan-target", "target", func(X [][]float64, y []float64) { y[badRow] = math.NaN() }},
		{"inf-feature", "feature 1", func(X [][]float64, y []float64) { X[badRow][1] = math.Inf(1) }},
	}
	for _, c := range corruptions {
		for _, f := range fits {
			t.Run(c.name+"/"+f.name, func(t *testing.T) {
				X, y := synth(3*groupRows, 3, 2, 0.05, 7)
				c.apply(X, y)
				err := f.fit(X, y)
				if err == nil {
					t.Fatal("fit accepted a non-finite value")
				}
				if errors.Is(err, merr.ErrBadArtifact) {
					t.Fatalf("rejection classified as a bad artifact: %v", err)
				}
				want := fmt.Sprintf("row %d %s", badRow, c.column)
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name %q", err, want)
				}
			})
		}
	}
}

func TestTreeImportancesIdentifyInformativeFeatures(t *testing.T) {
	X, y := synth(800, 8, 2, 0.05, 11)
	tree := NewDecisionTree(TreeConfig{MaxDepth: 10})
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	imp := tree.Importances()
	var sum float64
	for _, v := range imp {
		if v < 0 {
			t.Fatalf("negative importance %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importances sum to %v, want 1", sum)
	}
	// Features 0 and 1 carry all the signal.
	if imp[0]+imp[1] < 0.8 {
		t.Fatalf("informative features carry %v of importance, want > 0.8 (%v)", imp[0]+imp[1], imp)
	}
}

func TestGBRImportances(t *testing.T) {
	X, y := synth(500, 6, 2, 0.05, 12)
	g := NewGradientBoosted(GBRConfig{NumStages: 50, Seed: 12})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	imp := g.Importances()
	if imp[0]+imp[1] < 0.7 {
		t.Fatalf("GBR importances miss the signal: %v", imp)
	}
}

func TestTrainTestSplit(t *testing.T) {
	X, y := synth(100, 3, 2, 0, 13)
	Xtr, ytr, Xte, yte, err := TrainTestSplit(X, y, 0.7, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(Xtr) != 70 || len(Xte) != 30 || len(ytr) != 70 || len(yte) != 30 {
		t.Fatalf("split sizes = %d/%d", len(Xtr), len(Xte))
	}
	// Deterministic for fixed seed.
	Xtr2, _, _, _, _ := TrainTestSplit(X, y, 0.7, 9)
	for i := range Xtr {
		if &Xtr[i][0] != &Xtr2[i][0] {
			t.Fatal("split not deterministic")
		}
	}
	if _, _, _, _, err := TrainTestSplit(X, y, 0, 1); err == nil {
		t.Fatal("zero train fraction should error")
	}
	if _, _, _, _, err := TrainTestSplit(nil, nil, 0.5, 1); err == nil {
		t.Fatal("empty data should error")
	}
}

func TestTable3OrderingEmerges(t *testing.T) {
	// The paper's qualitative finding: GBR and ANN lead, RFR close behind,
	// single DTR and KNR trail. Verify GBR beats DTR and KNR on the same
	// problem.
	gbr := fitAndScore(t, NewGradientBoosted(GBRConfig{Seed: 20}), 20)
	dtr := fitAndScore(t, NewDecisionTree(TreeConfig{MaxDepth: 10}), 20)
	knr := fitAndScore(t, NewKNN(KNNConfig{K: 8}), 20)
	if !(gbr > dtr && gbr > knr) {
		t.Fatalf("Table 3 ordering violated: GBR=%v DTR=%v KNR=%v", gbr, dtr, knr)
	}
}

func TestFitDeterminismAcrossModels(t *testing.T) {
	X, y := synth(300, 5, 3, 0.05, 77)
	factories := []func() Regressor{
		func() Regressor { return NewDecisionTree(TreeConfig{MaxDepth: 8, Seed: 1}) },
		func() Regressor { return NewRandomForest(ForestConfig{NumTrees: 5, Seed: 1}) },
		func() Regressor { return NewGradientBoosted(GBRConfig{NumStages: 20, Seed: 1}) },
		func() Regressor { return NewKNN(KNNConfig{K: 4}) },
		func() Regressor { return NewSVR(SVRConfig{MaxIter: 5000, Seed: 1}) },
		func() Regressor { return NewMLP(MLPConfig{HiddenLayers: []int{16}, Epochs: 20, Seed: 1}) },
	}
	probe := X[17]
	for _, mk := range factories {
		m1, m2 := mk(), mk()
		if err := m1.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		if err := m2.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		if m1.Predict(probe) != m2.Predict(probe) {
			t.Fatalf("%s is nondeterministic for a fixed seed", m1.Name())
		}
	}
}

func TestGBRMoreStagesFitBetter(t *testing.T) {
	X, y := synth(500, 5, 3, 0.02, 78)
	few := NewGradientBoosted(GBRConfig{NumStages: 5, Seed: 2})
	many := NewGradientBoosted(GBRConfig{NumStages: 120, Seed: 2})
	if err := few.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := many.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	rFew, _ := R2Score(few, X, y)
	rMany, _ := R2Score(many, X, y)
	if rMany <= rFew {
		t.Fatalf("more boosting stages should fit better: %v vs %v", rMany, rFew)
	}
}

func TestConstantTargetModels(t *testing.T) {
	// A constant target must be learned exactly (or near) by every model
	// without NaNs.
	X, _ := synth(100, 3, 2, 0, 79)
	y := make([]float64, len(X))
	for i := range y {
		y[i] = 42
	}
	models := []Regressor{
		NewDecisionTree(TreeConfig{}),
		NewRandomForest(ForestConfig{NumTrees: 3}),
		NewGradientBoosted(GBRConfig{NumStages: 5}),
		NewKNN(KNNConfig{K: 3}),
		NewMLP(MLPConfig{HiddenLayers: []int{8}, Epochs: 30}),
	}
	for _, m := range models {
		if err := m.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		got := m.Predict(X[0])
		if math.IsNaN(got) || math.Abs(got-42) > 2 {
			t.Fatalf("%s predicts %v for a constant target 42", m.Name(), got)
		}
	}
}

func TestKNNKLargerThanTrainingSet(t *testing.T) {
	k := NewKNN(KNNConfig{K: 50})
	X := [][]float64{{1}, {2}, {3}}
	y := []float64{1, 2, 3}
	if err := k.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// Falls back to averaging the whole set.
	if got := k.Predict([]float64{2}); math.Abs(got-2) > 1e-9 {
		t.Fatalf("KNN with k > n should average all targets, got %v", got)
	}
}

func TestProjectColumns(t *testing.T) {
	X := [][]float64{{1, 2, 3}, {4, 5, 6}}
	got := ProjectColumns(X, []int{2, 0})
	if got[0][0] != 3 || got[0][1] != 1 || got[1][0] != 6 || got[1][1] != 4 {
		t.Fatalf("ProjectColumns = %v", got)
	}
}

// TestPredictAllMatchesPredict checks the batch path of every tree
// model — the ensembles' PredictAll on concurrent row chunks, a lone
// tree's row-by-row fallback — is bit-identical to per-point Predict.
func TestPredictAllMatchesPredict(t *testing.T) {
	X, y := synth(300, 5, 3, 0.05, 11)
	models := []Regressor{
		NewDecisionTree(TreeConfig{MaxDepth: 8}),
		NewRandomForest(ForestConfig{NumTrees: 12, MaxDepth: 6, Seed: 2, Workers: 3}),
		NewGradientBoosted(GBRConfig{NumStages: 40, MaxDepth: 3, Seed: 2, Workers: 3}),
	}
	for _, m := range models {
		if err := m.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		batch := PredictBatch(m, X)
		for i, x := range X {
			if p := m.Predict(x); p != batch[i] {
				t.Fatalf("%s: row %d: PredictAll %v != Predict %v", m.Name(), i, batch[i], p)
			}
		}
	}
}

// TestEnsembleFitDeterministicAcrossWorkers checks that the parallel
// bagged-forest fit and the parallel GBR residual update produce the same
// model as a serial fit.
func TestEnsembleFitDeterministicAcrossWorkers(t *testing.T) {
	X, y := synth(400, 6, 3, 0.05, 13)
	probe, _ := synth(50, 6, 3, 0, 14)

	type mk func(workers int) BatchRegressor
	cases := map[string]mk{
		"RFR": func(w int) BatchRegressor {
			return NewRandomForest(ForestConfig{NumTrees: 10, MaxDepth: 8, Seed: 3, Workers: w})
		},
		"GBR": func(w int) BatchRegressor {
			return NewGradientBoosted(GBRConfig{NumStages: 30, MaxDepth: 3, Subsample: 0.8, Seed: 3, Workers: w})
		},
	}
	for name, mkModel := range cases {
		serial := mkModel(1)
		if err := serial.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		want := serial.PredictAll(probe)
		wantImp := serial.(Importancer).Importances()
		for _, workers := range []int{2, 8} {
			par := mkModel(workers)
			if err := par.Fit(X, y); err != nil {
				t.Fatal(err)
			}
			got := par.PredictAll(probe)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s Workers=%d: prediction %d differs: %v vs %v", name, workers, i, got[i], want[i])
				}
			}
			for j, imp := range par.(Importancer).Importances() {
				if imp != wantImp[j] {
					t.Fatalf("%s Workers=%d: importance %d differs: %v vs %v", name, workers, j, imp, wantImp[j])
				}
			}
		}
	}
}
