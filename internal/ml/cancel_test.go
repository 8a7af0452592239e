package ml

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"merchandiser/internal/merr"
)

func cancelTrainingData(n, d int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(7))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()
		}
		X[i] = row
		y[i] = row[0]*2 - row[1]
	}
	return X, y
}

func TestGradientBoostedFitContextCanceled(t *testing.T) {
	X, y := cancelTrainingData(60, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gbr := NewGradientBoosted(GBRConfig{NumStages: 50, MaxDepth: 3, Seed: 1})
	err := gbr.FitContext(ctx, X, y)
	if !errors.Is(err, context.Canceled) || !errors.Is(err, merr.ErrCanceled) {
		t.Fatalf("want dual-matchable cancellation error, got %v", err)
	}

	// A canceled refit leaves even a fitted model unfitted: a fit either
	// completes or leaves nothing to serve.
	if err := gbr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := gbr.FitContext(ctx, X, y); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled refit: %v", err)
	}
	assertUnfitted(t, gbr, X[0])
}

// assertUnfitted requires a model to behave as never fitted: it
// predicts 0 and has no flat form to dump.
func assertUnfitted(t *testing.T, m Regressor, x []float64) {
	t.Helper()
	if p := m.Predict(x); p != 0 {
		t.Fatalf("%s predicts %v after a canceled refit, want 0", m.Name(), p)
	}
	if _, err := DumpFlat(m); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("%s dumps after a canceled refit: %v, want ErrNotFitted", m.Name(), err)
	}
}

func TestRandomForestFitContextCanceled(t *testing.T) {
	X, y := cancelTrainingData(60, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rf := NewRandomForest(ForestConfig{NumTrees: 10, MaxDepth: 5, Seed: 1})
	err := rf.FitContext(ctx, X, y)
	if !errors.Is(err, context.Canceled) || !errors.Is(err, merr.ErrCanceled) {
		t.Fatalf("want dual-matchable cancellation error, got %v", err)
	}
	if err := rf.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := rf.FitContext(ctx, X, y); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled refit: %v", err)
	}
	assertUnfitted(t, rf, X[0])
}

func TestFitFallsBackToUpfrontCheck(t *testing.T) {
	X, y := cancelTrainingData(30, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// KNN has no FitContext; Fit must still honor the dead context.
	err := Fit(ctx, NewKNN(KNNConfig{K: 3}), X, y)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// And a live context trains normally.
	if err := Fit(context.Background(), NewKNN(KNNConfig{K: 3}), X, y); err != nil {
		t.Fatal(err)
	}
}

func TestFitContextBackgroundIdenticalToFit(t *testing.T) {
	X, y := cancelTrainingData(80, 3)
	a := NewGradientBoosted(GBRConfig{NumStages: 20, MaxDepth: 3, Seed: 5})
	b := NewGradientBoosted(GBRConfig{NumStages: 20, MaxDepth: 3, Seed: 5})
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.FitContext(context.Background(), X, y); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		x := X[i]
		if a.Predict(x) != b.Predict(x) {
			t.Fatalf("Fit and FitContext(Background) diverged at row %d", i)
		}
	}
}
