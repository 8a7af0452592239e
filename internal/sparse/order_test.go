package sparse

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// rmatSorted is RMAT as it was written with a comparison sort over the
// edge list: the reference the counting-sort RMAT must reproduce exactly.
func rmatSorted(cfg RMATConfig) *CSR {
	cfg = cfg.withDefaults()
	n := 1 << cfg.Scale
	m := n * cfg.EdgeFactor
	if cfg.Edges > 0 {
		m = cfg.Edges
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	type edge struct{ r, c int32 }
	edges := make([]edge, m)
	for i := range edges {
		var r, c int
		for bit := cfg.Scale - 1; bit >= 0; bit-- {
			p := rng.Float64()
			switch {
			case p < cfg.A:
				// top-left: nothing set
			case p < cfg.A+cfg.B:
				c |= 1 << bit
			case p < cfg.A+cfg.B+cfg.C:
				r |= 1 << bit
			default:
				r |= 1 << bit
				c |= 1 << bit
			}
		}
		edges[i] = edge{int32(r), int32(c)}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].r != edges[b].r {
			return edges[a].r < edges[b].r
		}
		return edges[a].c < edges[b].c
	})

	out := &CSR{Rows: n, Cols: n, RowPtr: make([]int32, n+1)}
	out.ColIdx = make([]int32, 0, m)
	out.Val = make([]float64, 0, m)
	for _, e := range edges {
		out.RowPtr[e.r+1]++
		out.ColIdx = append(out.ColIdx, e.c)
		out.Val = append(out.Val, rng.Float64())
	}
	for r := 0; r < n; r++ {
		out.RowPtr[r+1] += out.RowPtr[r]
	}
	return out
}

// permuteSorted is Permute as it was written with an unstable comparison
// sort over the relabeled edges: the reference for Permute's structure.
func permuteSorted(m *CSR, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(m.Rows)
	relabel := make([]int32, m.Rows)
	for old, new := range perm {
		relabel[old] = int32(new)
	}
	type edge struct {
		r, c int32
		v    float64
	}
	edges := make([]edge, 0, m.NNZ())
	for r := 0; r < m.Rows; r++ {
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			edges = append(edges, edge{relabel[r], relabel[m.ColIdx[p]], m.Val[p]})
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].r != edges[b].r {
			return edges[a].r < edges[b].r
		}
		return edges[a].c < edges[b].c
	})
	out := &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int32, m.Rows+1)}
	out.ColIdx = make([]int32, 0, len(edges))
	out.Val = make([]float64, 0, len(edges))
	for _, e := range edges {
		out.RowPtr[e.r+1]++
		out.ColIdx = append(out.ColIdx, e.c)
		out.Val = append(out.Val, e.v)
	}
	for r := 0; r < m.Rows; r++ {
		out.RowPtr[r+1] += out.RowPtr[r]
	}
	return out
}

// The applications' inputs: Graph500 parameters for BFS (scale 20 at full
// size; 17 here keeps the test fast) and A/B/C 0.35/0.25/0.25 for SpGEMM.
var orderConfigs = []struct {
	name string
	cfg  RMATConfig
}{
	{"bfs-scale17-ef8", RMATConfig{Scale: 17, EdgeFactor: 8, Seed: 11}},
	{"bfs-quick-scale14-ef12", RMATConfig{Scale: 14, EdgeFactor: 12, Seed: 11}},
	{"spgemm-scale15-60000", RMATConfig{Scale: 15, Edges: 60000, A: 0.35, B: 0.25, C: 0.25, Seed: 11}},
	{"spgemm-quick-scale11-ef8", RMATConfig{Scale: 11, EdgeFactor: 8, A: 0.35, B: 0.25, C: 0.25, Seed: 11}},
	{"scale6-ef3", RMATConfig{Scale: 6, EdgeFactor: 3, Seed: 11}},
}

func TestRMATMatchesSortedReference(t *testing.T) {
	for _, tc := range orderConfigs {
		t.Run(tc.name, func(t *testing.T) {
			got, want := RMAT(tc.cfg), rmatSorted(tc.cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("RMAT differs from the sorted reference (nnz %d vs %d)", got.NNZ(), want.NNZ())
			}
		})
	}
}

// An unweighted RMAT skips only the value draws, which come after every
// edge: its graph must be the weighted one's. Such a structure-only
// matrix (nil Val) is a valid CSR, and transposing or permuting it gives
// the weighted results' structure with nil Val. PermuteAndTranspose's
// transpose must equal Transpose of its permutation, values included.
func TestRMATUnweightedKeepsTheGraph(t *testing.T) {
	for _, tc := range orderConfigs {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Unweighted = true
			got, want := RMAT(cfg), RMAT(tc.cfg)
			if got.Val != nil {
				t.Fatalf("unweighted RMAT drew %d values", len(got.Val))
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("unweighted RMAT: %v", err)
			}
			if !sameStructure(got, want) {
				t.Fatal("unweighted RMAT's graph differs from the weighted one's")
			}
			const seed = 29
			for _, pair := range []struct {
				name       string
				bare, full *CSR
			}{
				{"transpose", Transpose(got), Transpose(want)},
				{"permute", Permute(got, seed), Permute(want, seed)},
			} {
				if err := pair.bare.Validate(); err != nil {
					t.Fatalf("%s: %v", pair.name, err)
				}
				if pair.bare.Val != nil {
					t.Fatalf("%s of a structure-only matrix has %d values", pair.name, len(pair.bare.Val))
				}
				if !sameStructure(pair.bare, pair.full) {
					t.Fatalf("%s: structure differs from the weighted result's", pair.name)
				}
			}
			for _, in := range []*CSR{got, want} {
				p, pt := PermuteAndTranspose(in, seed)
				if !reflect.DeepEqual(p, Permute(in, seed)) || !reflect.DeepEqual(pt, Transpose(p)) {
					t.Fatalf("PermuteAndTranspose (weighted %v) differs from Permute and Transpose", in.Val != nil)
				}
			}
		})
	}
}

func sameStructure(a, b *CSR) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && slices.Equal(a.RowPtr, b.RowPtr) && slices.Equal(a.ColIdx, b.ColIdx)
}

// Permute must give the reference's RowPtr and ColIdx, and every run of
// entries sharing a (row, col) must hold the values of the input run it
// came from, in input order (the reference's unstable sort holds them in
// some order; the multiset is what both share).
func TestPermuteMatchesSortedReference(t *testing.T) {
	for _, tc := range orderConfigs[1:] {
		t.Run(tc.name, func(t *testing.T) {
			in := RMAT(tc.cfg)
			const seed = 29
			got, want := Permute(in, seed), permuteSorted(in, seed)
			if err := got.Validate(); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
				t.Fatal("Permute's structure differs from the sorted reference")
			}
			inverse := make([]int32, in.Rows)
			for old, new := range rand.New(rand.NewSource(seed)).Perm(in.Rows) {
				inverse[new] = int32(old)
			}
			dups := 0
			for r := 0; r < got.Rows; r++ {
				for p := got.RowPtr[r]; p < got.RowPtr[r+1]; {
					q := p + 1
					for q < got.RowPtr[r+1] && got.ColIdx[q] == got.ColIdx[p] {
						q++
					}
					if q-p > 1 {
						dups++
					}
					if !sameMultiset(got.Val[p:q], want.Val[p:q]) {
						t.Fatalf("row %d col %d: values %v, reference %v", r, got.ColIdx[p], got.Val[p:q], want.Val[p:q])
					}
					old, oldCol := inverse[r], inverse[got.ColIdx[p]]
					var src []float64
					for s := in.RowPtr[old]; s < in.RowPtr[old+1]; s++ {
						if in.ColIdx[s] == oldCol {
							src = append(src, in.Val[s])
						}
					}
					if !slices.Equal(got.Val[p:q], src) {
						t.Fatalf("row %d col %d: values %v, input order %v", r, got.ColIdx[p], got.Val[p:q], src)
					}
					p = q
				}
			}
			if dups == 0 && tc.cfg.Scale > 6 {
				t.Fatal("no duplicate (row, col) runs: the test exercises nothing")
			}
		})
	}
}

func sameMultiset(a, b []float64) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// rmatSink keeps the benchmarked matrix live, so the call is not removed.
var rmatSink *CSR

// BenchmarkRMAT times the generator at the applications' full input
// sizes: BFS's Graph500 graph and one SpGEMM operand.
func BenchmarkRMAT(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  RMATConfig
	}{
		{"bfs-full", RMATConfig{Scale: 20, EdgeFactor: 8, Seed: 11}},
		{"spgemm", RMATConfig{Scale: 15, Edges: 65536, A: 0.35, B: 0.25, C: 0.25, Seed: 11}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rmatSink = RMAT(bc.cfg)
			}
		})
	}
}
