// Package stats provides the statistical primitives used throughout the
// Merchandiser reproduction: dispersion metrics for load-balance analysis
// (coefficient of variation, A.C.V.), boxplot summaries for Figure 5,
// cosine similarity for the homogeneous-memory predictor (Section 5.2),
// and regression metrics (R², MSE) for the model-selection study (Table 3).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (dividing by n, not n-1).
// The population form is used because a task group is the entire population
// of tasks in a run, not a sample from a larger one.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CV returns the coefficient of variation (stddev/mean) of xs.
// It is the paper's per-run load-imbalance metric: smaller CV means task
// execution times are closer together. CV is 0 when the mean is 0.
func CV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// ACV returns the average coefficient of variation across several runs
// (e.g. task instances), the §7.2 metric used to quantify load balance.
func ACV(runs [][]float64) float64 {
	if len(runs) == 0 {
		return 0
	}
	var s float64
	for _, r := range runs {
		s += CV(r)
	}
	return s / float64(len(runs))
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between closest ranks, matching the convention used by
// common boxplot implementations. xs need not be sorted.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, errors.New("stats: quantile out of [0,1]")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo], nil
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// Box is a five-number boxplot summary plus outliers, as rendered in
// Figure 5: the interquartile box, median, whiskers at 1.5·IQR, and any
// points beyond the whiskers.
type Box struct {
	Min, Q1, Median, Q3, Max float64 // whisker ends and quartiles
	WhiskerLow, WhiskerHigh  float64 // most extreme points within 1.5 IQR
	Outliers                 []float64
}

// BoxSummary computes the boxplot summary of xs.
func BoxSummary(xs []float64) (Box, error) {
	if len(xs) == 0 {
		return Box{}, ErrEmpty
	}
	var b Box
	b.Q1, _ = Quantile(xs, 0.25)
	b.Median, _ = Quantile(xs, 0.5)
	b.Q3, _ = Quantile(xs, 0.75)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	b.Min, b.Max = s[0], s[len(s)-1]
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr
	b.WhiskerLow, b.WhiskerHigh = b.Q3, b.Q1 // will be tightened below
	first := true
	for _, x := range s {
		if x < loFence || x > hiFence {
			b.Outliers = append(b.Outliers, x)
			continue
		}
		if first {
			b.WhiskerLow, b.WhiskerHigh = x, x
			first = false
			continue
		}
		if x < b.WhiskerLow {
			b.WhiskerLow = x
		}
		if x > b.WhiskerHigh {
			b.WhiskerHigh = x
		}
	}
	return b, nil
}

// CosineSimilarity returns the cosine of the angle between vectors a and b.
// Section 5.2 uses it on input-size vectors to scale basic-block execution
// counts from the base input to a new input. Vectors must have equal,
// nonzero length; a zero vector yields similarity 0.
func CosineSimilarity(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, errors.New("stats: cosine similarity on vectors of different length")
	}
	if len(a) == 0 {
		return 0, ErrEmpty
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0, nil
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb)), nil
}

// R2 returns the coefficient of determination of predictions pred against
// ground truth y: 1 − SS_res/SS_tot. It is the Table 3 accuracy metric.
// When y is constant, R2 returns 1 if predictions match exactly, else 0.
func R2(y, pred []float64) (float64, error) {
	if len(y) != len(pred) {
		return 0, errors.New("stats: R2 on vectors of different length")
	}
	if len(y) == 0 {
		return 0, ErrEmpty
	}
	m := Mean(y)
	var ssRes, ssTot float64
	for i := range y {
		d := y[i] - pred[i]
		ssRes += d * d
		t := y[i] - m
		ssTot += t * t
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1, nil
		}
		return 0, nil
	}
	return 1 - ssRes/ssTot, nil
}

// MAPE returns the mean absolute percentage error between y and pred,
// skipping zero ground-truth entries. Table 4 reports prediction accuracy
// as 1 − MAPE.
func MAPE(y, pred []float64) (float64, error) {
	if len(y) != len(pred) {
		return 0, errors.New("stats: MAPE on vectors of different length")
	}
	var s float64
	n := 0
	for i := range y {
		if y[i] == 0 {
			continue
		}
		s += math.Abs((y[i] - pred[i]) / y[i])
		n++
	}
	if n == 0 {
		return 0, ErrEmpty
	}
	return s / float64(n), nil
}

// Accuracy returns the Table 4 style prediction accuracy, 1 − MAPE,
// clamped to [0, 1].
func Accuracy(y, pred []float64) (float64, error) {
	m, err := MAPE(y, pred)
	if err != nil {
		return 0, err
	}
	a := 1 - m
	if a < 0 {
		a = 0
	}
	return a, nil
}

// MinMax returns the smallest and largest values of xs.
func MinMax(xs []float64) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi, nil
}
