package apps

import (
	"fmt"
	"reflect"
	"testing"

	"merchandiser/internal/sparse"
)

// bfsReference builds BFS's per-instance levels and counts the way NewBFS
// did before the counts were shared across equal reached sets: the
// weighted graph with its values dropped, and for every candidate source
// a traversal with a distance array that counts each relaxed edge.
func bfsReference(cfg BFSConfig) (levels []int, edges [][]int64, matrix [][][]int64) {
	cfg = cfg.withDefaults()
	g := sparse.RMAT(sparse.RMATConfig{Scale: cfg.Scale, EdgeFactor: cfg.EdgeFactor, Seed: cfg.Seed})
	g.Val = nil
	parts := sparse.WeightedBins(g, cfg.Tasks, 2*float64(cfg.EdgeFactor))
	owner := make([]int32, g.Rows)
	for p, pr := range parts {
		for v := pr[0]; v < pr[1] && v < g.Rows; v++ {
			owner[v] = int32(p)
		}
	}
	var total int64
	for _, e := range sparse.BinNNZ(g, parts) {
		total += int64(e)
	}
	dist := make([]int32, g.Rows)
	src := 0
	for len(levels) < cfg.Instances {
		byPart := make([]int64, len(parts))
		mat := make([][]int64, len(parts))
		for i := range mat {
			mat[i] = make([]int64, len(parts))
		}
		for i := range dist {
			dist[i] = -1
		}
		s := int32(src % g.Rows)
		src++
		dist[s] = 0
		ecc, traversed := int32(0), int64(0)
		for queue := []int32{s}; len(queue) > 0; queue = queue[1:] {
			u := queue[0]
			for p := g.RowPtr[u]; p < g.RowPtr[u+1]; p++ {
				v := g.ColIdx[p]
				byPart[owner[u]]++
				mat[owner[u]][owner[v]]++
				traversed++
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					ecc = max(ecc, dist[v])
					queue = append(queue, v)
				}
			}
		}
		if traversed*10 >= total {
			levels = append(levels, int(ecc))
			edges = append(edges, byPart)
			matrix = append(matrix, mat)
		}
	}
	return levels, edges, matrix
}

// TestBFSMatchesReferenceConstruction: the value-free graph, the bitmap
// traversal and the counts shared across equal reached sets must give
// every instance the levels and counts the counting traversal gives, at
// the quick configuration and at a scale where the graph has a long
// tail of sink sources.
func TestBFSMatchesReferenceConstruction(t *testing.T) {
	quick := BFSConfig{Tasks: 6, Scale: 14, EdgeFactor: 12, Instances: 4, Rep: 30}
	full := BFSConfig{Scale: 16} // the full configuration's defaults, a sixteenth of the graph
	for _, tc := range []struct {
		cfg   BFSConfig
		seeds []int64
	}{{quick, []int64{1, 3, 7}}, {full, []int64{1, 11}}} {
		for _, seed := range tc.seeds {
			cfg := tc.cfg
			cfg.Seed = seed
			t.Run(fmt.Sprintf("scale%d-seed%d", cfg.Scale, seed), func(t *testing.T) {
				app, err := NewBFS(cfg)
				if err != nil {
					t.Fatal(err)
				}
				levels, edges, matrix := bfsReference(cfg)
				if !reflect.DeepEqual(app.levels, levels) {
					t.Fatalf("levels %v, reference %v", app.levels, levels)
				}
				if !reflect.DeepEqual(app.edges, edges) {
					t.Fatalf("edges %v, reference %v", app.edges, edges)
				}
				if !reflect.DeepEqual(app.matrix, matrix) {
					t.Fatal("edge matrices differ from the reference")
				}
			})
		}
	}
}

// bfsSink keeps the benchmarked application live, so the build is not
// removed.
var bfsSink *BFSApp

// BenchmarkNewBFS times the BFS application's construction — graph,
// partitioning, and every instance's traversal and counts — at the
// quick configuration and at full scale (a 2^20-vertex graph).
func BenchmarkNewBFS(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  BFSConfig
	}{
		{"quick", BFSConfig{Tasks: 6, Scale: 14, EdgeFactor: 12, Instances: 4, Rep: 30, Seed: 1}},
		{"full", BFSConfig{Seed: 1}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				app, err := NewBFS(bc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				bfsSink = app
			}
		})
	}
}
