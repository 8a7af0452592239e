// Package ml implements the statistical models of the paper's Table 3 —
// Decision Tree Regressor, Support Vector Regressor (RBF), K-Neighbors
// Regressor, Random Forest Regressor, Gradient Boosted Regressor and an
// MLP Regressor — from scratch on the standard library, together with the
// impurity-based ("Gini") feature importance the paper uses to select the
// 8 workload-characteristic events (Section 5.1). The recursive feature
// elimination itself is Figure 7's loop (experiments.Fig7), which needs a
// regular and an irregular R² per step.
//
// The paper trains these with scikit-learn; the implementations here
// follow the same algorithms (CART with variance reduction, bagging,
// gradient boosting on squared loss, ε-SVR via SMO, standardized KNN and a
// ReLU MLP with Adam) so the model-family ranking of Table 3 emerges from
// the same mechanisms.
package ml

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"merchandiser/internal/merr"
	"merchandiser/internal/stats"
)

// Regressor is a trainable single-output regression model.
type Regressor interface {
	// Fit trains on rows X (n×d) with targets y (n).
	Fit(X [][]float64, y []float64) error
	// Predict returns the model output for one feature vector.
	Predict(x []float64) float64
	// Name returns the Table 3 abbreviation (DTR, SVR, ...).
	Name() string
}

// Importancer is implemented by models that expose per-feature
// impurity-decrease importances (the Gini importance of Section 5.1).
type Importancer interface {
	// Importances returns one non-negative weight per feature, summing to
	// 1 (or all zeros for a constant model).
	Importances() []float64
}

// BatchRegressor is implemented by the tree ensembles, whose batch
// predictor scores row chunks on concurrent goroutines (Workers), each
// row through Predict's own walk. PredictAll(X)[i] equals Predict(X[i])
// exactly.
type BatchRegressor interface {
	Regressor
	// PredictAll returns the model output for every row of X.
	PredictAll(X [][]float64) []float64
}

// ErrNotFitted is returned by Predict-time misuse and by helpers that
// require a trained model. It is classified under merr.ErrUntrained so
// callers can match either sentinel.
var ErrNotFitted = merr.Wrap(merr.ErrUntrained, "", errors.New("ml: model not fitted"))

// ContextFitter is implemented by models whose training can be canceled
// mid-fit (between boosting stages or tree fits). FitContext with a
// context.Background() is exactly Fit.
type ContextFitter interface {
	Regressor
	FitContext(ctx context.Context, X [][]float64, y []float64) error
}

// Fit trains m on (X, y) honoring ctx when the model supports
// cancellation; other models are fitted atomically after an upfront
// context check. The trained model is identical to m.Fit(X, y) whenever
// ctx stays live.
func Fit(ctx context.Context, m Regressor, X [][]float64, y []float64) error {
	if cf, ok := m.(ContextFitter); ok {
		return cf.FitContext(ctx, X, y)
	}
	if err := merr.FromContext(ctx, "ml: fit canceled"); err != nil {
		return err
	}
	return m.Fit(X, y)
}

// parallelChunks splits [0, n) into contiguous chunks and runs fn on up to
// `workers` goroutines (0 = runtime.NumCPU()). Each index is processed
// exactly once; chunk boundaries never overlap, so fn may write result
// slots without synchronization and the output is deterministic.
func parallelChunks(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// validate checks the common Fit preconditions.
func validate(X [][]float64, y []float64) error {
	if len(X) == 0 {
		return errors.New("ml: empty training set")
	}
	if len(X) != len(y) {
		return fmt.Errorf("ml: %d rows but %d targets", len(X), len(y))
	}
	d := len(X[0])
	if d == 0 {
		return errors.New("ml: zero-dimensional features")
	}
	for i, r := range X {
		if len(r) != d {
			return fmt.Errorf("ml: row %d has %d features, want %d", i, len(r), d)
		}
		if err := checkFinite(i, r, y[i]); err != nil {
			return err
		}
	}
	return nil
}

// checkFinite rejects a training row holding NaN or ±Inf: no model can
// fit one, and each family would fail differently (or not at all).
func checkFinite(row int, x []float64, y float64) error {
	for j, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("ml: row %d feature %d is %v, want a finite value", row, j, v)
		}
	}
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return fmt.Errorf("ml: row %d target is %v, want a finite value", row, y)
	}
	return nil
}

// PredictBatch applies the model to every row, using the model's batch
// predictor when it has one and Predict row by row otherwise; either
// way PredictBatch(m, X)[i] equals m.Predict(X[i]) exactly.
func PredictBatch(m Regressor, X [][]float64) []float64 {
	if b, ok := m.(BatchRegressor); ok {
		return b.PredictAll(X)
	}
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = m.Predict(x)
	}
	return out
}

// ProjectColumns selects the given columns of X into a new matrix.
func ProjectColumns(X [][]float64, cols []int) [][]float64 {
	out := make([][]float64, len(X))
	for i, r := range X {
		row := make([]float64, len(cols))
		for j, c := range cols {
			row[j] = r[c]
		}
		out[i] = row
	}
	return out
}

// R2Score fits nothing: it evaluates m on (X, y) and returns R².
func R2Score(m Regressor, X [][]float64, y []float64) (float64, error) {
	return stats.R2(y, PredictBatch(m, X))
}

// TrainTestSplit shuffles deterministically (by seed) and splits the data
// with trainFrac of the rows in the training part — the paper's 70/30
// split.
func TrainTestSplit(X [][]float64, y []float64, trainFrac float64, seed int64) (Xtr [][]float64, ytr []float64, Xte [][]float64, yte []float64, err error) {
	if err := validate(X, y); err != nil {
		return nil, nil, nil, nil, err
	}
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, nil, nil, fmt.Errorf("ml: train fraction %v out of (0,1)", trainFrac)
	}
	idx := rand.New(rand.NewSource(seed)).Perm(len(X))
	nTrain := int(float64(len(X)) * trainFrac)
	if nTrain == 0 {
		nTrain = 1
	}
	if nTrain == len(X) {
		nTrain = len(X) - 1
	}
	for i, j := range idx {
		if i < nTrain {
			Xtr = append(Xtr, X[j])
			ytr = append(ytr, y[j])
		} else {
			Xte = append(Xte, X[j])
			yte = append(yte, y[j])
		}
	}
	return Xtr, ytr, Xte, yte, nil
}

// scaler standardizes features to zero mean, unit variance; constant
// features are left centered.
type scaler struct {
	mean, std []float64
}

func fitScaler(X [][]float64) *scaler {
	d := len(X[0])
	s := &scaler{mean: make([]float64, d), std: make([]float64, d)}
	n := float64(len(X))
	for _, r := range X {
		for j, v := range r {
			s.mean[j] += v
		}
	}
	for j := range s.mean {
		s.mean[j] /= n
	}
	for _, r := range X {
		for j, v := range r {
			dv := v - s.mean[j]
			s.std[j] += dv * dv
		}
	}
	for j := range s.std {
		s.std[j] = math.Sqrt(s.std[j] / n)
		if s.std[j] == 0 {
			s.std[j] = 1
		}
	}
	return s
}

// transformInto standardizes x appending onto dst and returns the
// extended slice — the allocation-free form for hot paths that reuse a
// scratch buffer (pass dst[:0] to overwrite it).
func (s *scaler) transformInto(dst, x []float64) []float64 {
	for j, v := range x {
		dst = append(dst, (v-s.mean[j])/s.std[j])
	}
	return dst
}

func (s *scaler) transform(x []float64) []float64 {
	return s.transformInto(make([]float64, 0, len(x)), x)
}

// transformAll standardizes a whole matrix into one backing array: a
// single n·d allocation instead of one per row.
func (s *scaler) transformAll(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	flat := make([]float64, 0, len(X)*len(s.mean))
	for i, r := range X {
		start := len(flat)
		flat = s.transformInto(flat, r)
		out[i] = flat[start:len(flat):len(flat)]
	}
	return out
}
