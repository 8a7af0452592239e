package merchandiser

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"merchandiser/internal/ml"
	"merchandiser/internal/model"
	"merchandiser/internal/pmc"
)

// benchEnsembles spans the cold-start story: small is merchbench's
// quick profile, large is ~20x the paper's Table 3 ensemble.
var benchEnsembles = []struct {
	name          string
	stages, depth int
	rows          int
}{
	{"small", 16, 4, 400},
	{"medium", 64, 6, 800},
	{"large", 256, 8, 1600},
}

// benchArtifact fits one synthetic GBR system per size and snapshots
// it.
func benchArtifact(b *testing.B, stages, depth, rows int) []byte {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(stages)))
	d := len(pmc.SelectedEvents) + 1
	X := make([][]float64, rows)
	y := make([]float64, rows)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64() * 10
		}
		X[i] = row
		y[i] = row[0]*0.4 + row[1]*row[2]*0.05 + rng.NormFloat64()*0.1
	}
	g := ml.NewGradientBoosted(ml.GBRConfig{NumStages: stages, MaxDepth: depth, Seed: 7})
	if err := g.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	sys := &System{
		Spec:      DefaultSpec(),
		Perf:      &model.PerfModel{Corr: &model.CorrelationFunc{Model: g, Events: append([]string(nil), pmc.SelectedEvents...)}},
		TrainedR2: 0.9,
	}
	var buf bytes.Buffer
	if err := sys.Snapshot(&buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func benchRestore(b *testing.B, data []byte) {
	b.Helper()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := Restore(context.Background(), bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if sys.Perf.Corr == nil {
			b.Fatal("restored without a model")
		}
	}
}

// BenchmarkRestore is the daemon cold start: the node table is one
// contiguous read plus an O(n) structural validation — no JSON node
// decode, no pointer rebuild, no re-compile.
func BenchmarkRestore(b *testing.B) {
	for _, e := range benchEnsembles {
		data := benchArtifact(b, e.stages, e.depth, e.rows)
		b.Run(fmt.Sprintf("%s_stages%d_depth%d", e.name, e.stages, e.depth), func(b *testing.B) {
			benchRestore(b, data)
		})
	}
}
