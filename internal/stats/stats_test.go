package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !approx(got, 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); !approx(got, 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !approx(got, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
	if got := Variance(nil); got != 0 {
		t.Fatalf("Variance(nil) = %v, want 0", got)
	}
}

func TestCV(t *testing.T) {
	// Identical values: no variability.
	if got := CV([]float64{3, 3, 3}); got != 0 {
		t.Fatalf("CV of constant = %v, want 0", got)
	}
	// Known case: mean 5, stddev 2 => 0.4.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := CV(xs); !approx(got, 0.4, 1e-12) {
		t.Fatalf("CV = %v, want 0.4", got)
	}
	if got := CV([]float64{-1, 1}); got != 0 {
		t.Fatalf("CV with zero mean = %v, want 0", got)
	}
}

func TestACV(t *testing.T) {
	runs := [][]float64{{3, 3, 3}, {2, 4, 4, 4, 5, 5, 7, 9}}
	if got := ACV(runs); !approx(got, 0.2, 1e-12) {
		t.Fatalf("ACV = %v, want 0.2", got)
	}
	if got := ACV(nil); got != 0 {
		t.Fatalf("ACV(nil) = %v, want 0", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.75, 3.25},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", c.q, err)
		}
		if !approx(got, c.want, 1e-12) {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Fatal("Quantile on empty should error")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Fatal("Quantile out of range should error")
	}
}

func TestBoxSummary(t *testing.T) {
	// 1..9 plus an extreme outlier.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	b, err := BoxSummary(xs)
	if err != nil {
		t.Fatal(err)
	}
	if b.Median <= b.Q1 || b.Median >= b.Q3 {
		t.Fatalf("median %v not inside box [%v, %v]", b.Median, b.Q1, b.Q3)
	}
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Fatalf("Outliers = %v, want [100]", b.Outliers)
	}
	if b.WhiskerHigh >= 100 {
		t.Fatalf("whisker %v should exclude the outlier", b.WhiskerHigh)
	}
	if b.Min != 1 || b.Max != 100 {
		t.Fatalf("Min/Max = %v/%v, want 1/100", b.Min, b.Max)
	}
	if _, err := BoxSummary(nil); err == nil {
		t.Fatal("BoxSummary on empty should error")
	}
}

func TestBoxSummaryOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		b, err := BoxSummary(xs)
		if err != nil {
			return false
		}
		return b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max &&
			b.WhiskerLow <= b.WhiskerHigh
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCosineSimilarity(t *testing.T) {
	got, err := CosineSimilarity([]float64{1, 0}, []float64{1, 0})
	if err != nil || !approx(got, 1, 1e-12) {
		t.Fatalf("identical vectors: got %v, %v", got, err)
	}
	got, _ = CosineSimilarity([]float64{1, 0}, []float64{0, 1})
	if !approx(got, 0, 1e-12) {
		t.Fatalf("orthogonal vectors: got %v", got)
	}
	got, _ = CosineSimilarity([]float64{1, 2}, []float64{2, 4})
	if !approx(got, 1, 1e-12) {
		t.Fatalf("parallel vectors: got %v", got)
	}
	got, _ = CosineSimilarity([]float64{0, 0}, []float64{1, 1})
	if got != 0 {
		t.Fatalf("zero vector: got %v, want 0", got)
	}
	if _, err := CosineSimilarity([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := CosineSimilarity(nil, nil); err == nil {
		t.Fatal("empty vectors should error")
	}
}

func TestCosineSimilarityScaleInvariance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = r.Float64()*10 + 0.1
			b[i] = r.Float64()*10 + 0.1
		}
		s1, _ := CosineSimilarity(a, b)
		scaled := make([]float64, n)
		k := r.Float64()*5 + 0.5
		for i := range a {
			scaled[i] = a[i] * k
		}
		s2, _ := CosineSimilarity(scaled, b)
		return approx(s1, s2, 1e-9) && s1 >= -1-1e-9 && s1 <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestR2(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	if got, _ := R2(y, y); !approx(got, 1, 1e-12) {
		t.Fatalf("perfect prediction R2 = %v, want 1", got)
	}
	mean := []float64{2.5, 2.5, 2.5, 2.5}
	if got, _ := R2(y, mean); !approx(got, 0, 1e-12) {
		t.Fatalf("mean prediction R2 = %v, want 0", got)
	}
	// Constant ground truth.
	c := []float64{5, 5, 5}
	if got, _ := R2(c, c); got != 1 {
		t.Fatalf("constant exact R2 = %v, want 1", got)
	}
	if got, _ := R2(c, []float64{5, 5, 6}); got != 0 {
		t.Fatalf("constant inexact R2 = %v, want 0", got)
	}
	if _, err := R2(y, c); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestMAPE(t *testing.T) {
	y := []float64{2, 4}
	p := []float64{1, 6}
	mape, err := MAPE(y, p)
	if err != nil || !approx(mape, 0.5, 1e-12) {
		t.Fatalf("MAPE = %v (%v), want 0.5", mape, err)
	}
	acc, err := Accuracy(y, p)
	if err != nil || !approx(acc, 0.5, 1e-12) {
		t.Fatalf("Accuracy = %v (%v), want 0.5", acc, err)
	}
	// Zero ground-truth entries are skipped by MAPE.
	mape, err = MAPE([]float64{0, 2}, []float64{7, 2})
	if err != nil || mape != 0 {
		t.Fatalf("MAPE skipping zeros = %v (%v), want 0", mape, err)
	}
	if _, err := MAPE([]float64{0}, []float64{1}); err == nil {
		t.Fatal("MAPE with only zero truths should error")
	}
	// Accuracy clamps at 0 for wild predictions.
	acc, _ = Accuracy([]float64{1}, []float64{10})
	if acc != 0 {
		t.Fatalf("clamped accuracy = %v, want 0", acc)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi, err := MinMax([]float64{3, -1, 7})
	if err != nil || lo != -1 || hi != 7 {
		t.Fatalf("MinMax = %v,%v (%v)", lo, hi, err)
	}
	if _, _, err := MinMax(nil); err == nil {
		t.Fatal("MinMax empty should error")
	}
}

func TestR2RandomisedBounds(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 5 + r.Intn(50)
		y := make([]float64, n)
		p := make([]float64, n)
		for i := range y {
			y[i] = r.NormFloat64()*3 + 10
			p[i] = y[i] + r.NormFloat64()*0.1
		}
		got, err := R2(y, p)
		if err != nil {
			t.Fatal(err)
		}
		if got > 1+1e-12 {
			t.Fatalf("R2 = %v exceeds 1", got)
		}
		if got < 0.9 {
			t.Fatalf("near-perfect predictor scored %v", got)
		}
	}
}
