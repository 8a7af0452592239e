package sparse

import (
	"fmt"
	"reflect"
	"testing"
)

// bfsReferenceResult and bfsReference are the level-synchronous BFS as it
// was written with a distance array and per-edge counting: the reference
// the Traverser's levels and counts must reproduce exactly.
type bfsReferenceResult struct {
	Dist []int32 // -1 for unreachable
	// EdgesByPartition counts edge relaxations attributed to each vertex
	// partition — the per-task workload of the BFS application.
	EdgesByPartition []int64
	// EdgeMatrix[s][t] counts relaxations from source partition s into
	// target partition t — where each task's distance-array updates land.
	EdgeMatrix [][]int64
	Levels     int
}

// bfsReference runs a level-synchronous breadth-first search from src over
// the graph g (CSR adjacency). partitions gives [lo, hi) vertex ranges;
// edge work is attributed to the partition owning the *source* vertex of
// each relaxed edge (owner-computes, as in distributed BFS).
func bfsReference(g *CSR, src int, partitions [][2]int) (*bfsReferenceResult, error) {
	if src < 0 || src >= g.Rows {
		return nil, fmt.Errorf("sparse: bfs source %d out of range %d", src, g.Rows)
	}
	res := &bfsReferenceResult{
		Dist:             make([]int32, g.Rows),
		EdgesByPartition: make([]int64, len(partitions)),
		EdgeMatrix:       make([][]int64, len(partitions)),
	}
	for i := range res.EdgeMatrix {
		res.EdgeMatrix[i] = make([]int64, len(partitions))
	}
	for i := range res.Dist {
		res.Dist[i] = -1
	}
	owner := make([]int32, g.Rows)
	for p, pr := range partitions {
		for v := pr[0]; v < pr[1] && v < g.Rows; v++ {
			owner[v] = int32(p)
		}
	}
	res.Dist[src] = 0
	frontier := []int32{int32(src)}
	level := int32(0)
	for len(frontier) > 0 {
		level++
		var next []int32
		for _, u := range frontier {
			for p := g.RowPtr[u]; p < g.RowPtr[u+1]; p++ {
				v := g.ColIdx[p]
				res.EdgesByPartition[owner[u]]++
				res.EdgeMatrix[owner[u]][owner[v]]++
				if res.Dist[v] < 0 {
					res.Dist[v] = level
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	// Levels is the eccentricity of the source: the largest distance
	// reached.
	for _, d := range res.Dist {
		if int(d) > res.Levels {
			res.Levels = int(d)
		}
	}
	return res, nil
}

// reached reports whether the last search of t reached vertex v.
func reached(t *Traverser, v int) bool { return t.seen[v>>6]&(1<<(uint(v)&63)) != 0 }

// blockDiagonal puts b's vertices after a's, with no edge between the
// two blocks: a source in one block reaches nothing of the other.
func blockDiagonal(a, b *CSR) *CSR {
	n := a.Rows + b.Rows
	out := &CSR{Rows: n, Cols: n, RowPtr: make([]int32, 0, n+1)}
	out.RowPtr = append(out.RowPtr, a.RowPtr...)
	for _, p := range b.RowPtr[1:] {
		out.RowPtr = append(out.RowPtr, int32(a.NNZ())+p)
	}
	out.ColIdx = append(out.ColIdx, a.ColIdx...)
	for _, c := range b.ColIdx {
		out.ColIdx = append(out.ColIdx, int32(a.Rows)+c)
	}
	return out
}

// TestTraverserMatchesReference runs consecutive searches whose reached
// sets differ — two disjoint RMAT blocks and a sink — over partitionings
// that leave rows uncovered or overlap, and requires each search's
// levels, edge total and counts to equal the reference's. Every
// application config reaches one set per graph, so only graphs like
// these run Counts' recount after a change of set.
func TestTraverserMatchesReference(t *testing.T) {
	a := RMAT(RMATConfig{Scale: 9, EdgeFactor: 8, Seed: 3, Unweighted: true})
	b := RMAT(RMATConfig{Scale: 8, EdgeFactor: 6, A: 0.45, B: 0.25, C: 0.15, Seed: 4, Unweighted: true})
	g := blockDiagonal(a, b)
	sink := -1
	for v := 0; v < a.Rows; v++ {
		if g.RowPtr[v+1] == g.RowPtr[v] {
			sink = v
			break
		}
	}
	if sink < 0 {
		t.Fatal("block a has no sink vertex")
	}
	n := a.Rows
	// Sources 0, 1 and 2 reach block a's giant component; n, n+1 and n+2
	// block b's. Back and forth, with repeats and the sink in between.
	sources := []int{0, 1, n, n + 1, 0, sink, sink, 2, n + 2, 0, 1}
	partitionings := map[string][][2]int{
		"cover":     WeightedBins(g, 5, 16),
		"gaps":      {{n / 4, n / 2}, {n + 10, n + n/4}, {n + n/4, g.Rows - 5}},
		"overlap":   {{0, n}, {n / 2, n + 40}, {n + 20, g.Rows}},
		"one":       {{0, g.Rows}},
		"past-rows": {{0, n}, {n, g.Rows + 100}},
	}
	for name, parts := range partitionings {
		t.Run(name, func(t *testing.T) {
			tr := NewTraverser(g, parts)
			var reused, recounted int
			var prev []int64
			var prevDist []int32
			for i, src := range sources {
				levels, edges, err := tr.BFS(src)
				if err != nil {
					t.Fatal(err)
				}
				byPart, matrix := tr.Counts()
				want, err := bfsReference(g, src, parts)
				if err != nil {
					t.Fatal(err)
				}
				var wantEdges int64
				for _, e := range want.EdgesByPartition {
					wantEdges += e
				}
				if levels != want.Levels || edges != wantEdges {
					t.Fatalf("search %d (src %d): levels %d edges %d, reference %d and %d", i, src, levels, edges, want.Levels, wantEdges)
				}
				if !reflect.DeepEqual(byPart, want.EdgesByPartition) || !reflect.DeepEqual(matrix, want.EdgeMatrix) {
					t.Fatalf("search %d (src %d): counts %v %v, reference %v %v", i, src, byPart, matrix, want.EdgesByPartition, want.EdgeMatrix)
				}
				for v, d := range want.Dist {
					if reached(tr, v) != (d >= 0) {
						t.Fatalf("search %d (src %d): reached[%d] = %v, reference distance %d", i, src, v, reached(tr, v), d)
					}
				}
				if i > 0 {
					sameSet := true
					for v, d := range want.Dist {
						if (d >= 0) != (prevDist[v] >= 0) {
							sameSet = false
							break
						}
					}
					if shared := &byPart[0] == &prev[0]; shared != sameSet {
						t.Fatalf("search %d (src %d): counts shared with the previous search %v, same reached set %v", i, src, shared, sameSet)
					}
					if sameSet {
						reused++
					} else {
						recounted++
					}
				}
				prev, prevDist = byPart, want.Dist
			}
			if reused == 0 || recounted == 0 {
				t.Fatalf("counts reused %d times and recounted %d times: the walk misses a branch", reused, recounted)
			}
		})
	}
}
