package apps

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"merchandiser/internal/sparse"
)

// spgemmReference is NewSpGEMM's construction as it was written before
// the workload came from the structure alone: weighted operands, B
// transposed from A, and the numeric phase run for every multiplication,
// its C values summed into the checksum.
func spgemmReference(cfg SpGEMMConfig) (instances [][]spgemmTaskWork, checksum float64) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	taskMul := make([]float64, cfg.Tasks)
	var mulSum float64
	for t := range taskMul {
		taskMul[t] = math.Exp(rng.NormFloat64() * 0.15)
		mulSum += taskMul[t]
	}
	norm := 0.9 * float64(cfg.Tasks) / mulSum
	for t := range taskMul {
		taskMul[t] *= norm
	}
	for i := 0; i < cfg.Instances; i++ {
		works := make([]spgemmTaskWork, cfg.Tasks)
		for t := 0; t < cfg.Tasks; t++ {
			sizeMul := taskMul[t] * math.Exp(rng.NormFloat64()*0.06)
			edges := int(float64((1<<cfg.Scale)*cfg.EdgeFactor) * sizeMul)
			a := sparse.RMAT(sparse.RMATConfig{
				Scale: cfg.Scale, Edges: edges,
				A: 0.35, B: 0.25, C: 0.25,
				Seed: cfg.Seed + int64(i*cfg.Tasks+t)*13,
			})
			a = sparse.Permute(a, cfg.Seed+int64(i*cfg.Tasks+t)*29)
			b := sparse.Transpose(a)
			rowNNZ, gathers := sparse.SymbolicRange(a, b, 0, a.Rows)
			c, _ := sparse.NumericRange(a, b, 0, a.Rows, rowNNZ)
			for _, v := range c.Val {
				checksum += v
			}
			works[t] = spgemmTaskWork{
				aNNZ:    a.NNZ(),
				gathers: gathers,
				cNNZ:    int64(c.NNZ()),
				aBytes:  a.Bytes(),
				bBytes:  b.Bytes(),
				cBytes:  c.Bytes(),
			}
		}
		instances = append(instances, works)
	}
	return instances, checksum
}

// The structure-only construction must give the reference's workload
// (counts and byte footprints) and, on demand, its checksum bit for bit:
// at the test and quick configurations, at two quick seeds, and at full
// scale.
func TestSpGEMMMatchesReferenceConstruction(t *testing.T) {
	cfgs := []SpGEMMConfig{
		{Tasks: 4, Scale: 10, EdgeFactor: 8, Instances: 2, Seed: 1},
		{Tasks: 6, Scale: 11, EdgeFactor: 8, Instances: 4, Rep: 8, Seed: 11},
		{Tasks: 6, Scale: 11, EdgeFactor: 8, Instances: 4, Rep: 8, Seed: 13},
	}
	if !testing.Short() {
		cfgs = append(cfgs, SpGEMMConfig{Seed: 11})
	}
	for _, cfg := range cfgs {
		t.Run(fmt.Sprintf("scale%d-tasks%d-seed%d", cfg.withDefaults().Scale, cfg.withDefaults().Tasks, cfg.Seed), func(t *testing.T) {
			app, err := NewSpGEMM(cfg)
			if err != nil {
				t.Fatal(err)
			}
			instances, checksum := spgemmReference(cfg)
			if !reflect.DeepEqual(app.instances, instances) {
				t.Fatalf("workload differs from the reference construction:\n got %+v\nwant %+v", app.instances, instances)
			}
			if got := app.Checksum(); got != checksum {
				t.Fatalf("Checksum %v, reference %v", got, checksum)
			}
		})
	}
}

// spgemmSink keeps the benchmarked application live.
var spgemmSink *SpGEMM

// BenchmarkNewSpGEMM times the SpGEMM application's construction — every
// instance's operands and symbolic multiplication — at the quick
// configuration and at full scale.
func BenchmarkNewSpGEMM(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  SpGEMMConfig
	}{
		{"quick", SpGEMMConfig{Tasks: 6, Scale: 11, EdgeFactor: 8, Instances: 4, Rep: 8, Seed: 1}},
		{"full", SpGEMMConfig{Seed: 1}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				app, err := NewSpGEMM(bc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				spgemmSink = app
			}
		})
	}
}
