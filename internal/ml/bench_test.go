package ml

import (
	"math"
	"math/rand"
	"testing"
)

// benchData is a nonlinear regression problem at the Table 3 GBR scale.
func benchData(n, d int, seed int64) ([][]float64, []float64) {
	r := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			row[j] = r.Float64()*2 - 1
		}
		X[i] = row
		y[i] = 3*row[0] + 2*row[1]*row[1] + math.Sin(3*row[2]) + r.NormFloat64()*0.05
	}
	return X, y
}

func benchGBR(b *testing.B) (*GradientBoosted, [][]float64) {
	b.Helper()
	X, y := benchData(2000, 9, 3)
	g := NewGradientBoosted(GBRConfig{NumStages: 150, MaxDepth: 4, Seed: 7, Workers: 1})
	if err := g.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	return g, X
}

// predictAllPointer is the pre-compilation batch path (row-outer over
// pointer trees), kept as the benchmark baseline.
func (g *GradientBoosted) predictAllPointer(X [][]float64) []float64 {
	out := make([]float64, len(X))
	parallelChunks(len(X), g.Config.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = g.predictPointer(X[i])
		}
	})
	return out
}

// BenchmarkPredictPointer measures the original pointer-linked tree
// walk (single point and batch, Workers=1 so the numbers isolate the
// memory layout rather than the goroutine pool).
func BenchmarkPredictPointer(b *testing.B) {
	g, X := benchGBR(b)
	b.Run("single", func(b *testing.B) {
		x := X[0]
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = g.predictPointer(x)
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = g.predictAllPointer(X)
		}
	})
}

// BenchmarkPredictCompiled measures the flat node-table engine on the
// same fitted model; the batch case is PredictAll, one walk per tree
// per row.
func BenchmarkPredictCompiled(b *testing.B) {
	g, X := benchGBR(b)
	b.Run("single", func(b *testing.B) {
		x := X[0]
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = g.Predict(x)
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = g.PredictAll(X)
		}
	})
}
