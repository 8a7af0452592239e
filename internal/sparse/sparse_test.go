package sparse

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func smallCSR() *CSR {
	// 3x3: [1 0 2; 0 3 0; 4 0 5]
	return &CSR{
		Rows: 3, Cols: 3,
		RowPtr: []int32{0, 2, 3, 5},
		ColIdx: []int32{0, 2, 1, 0, 2},
		Val:    []float64{1, 2, 3, 4, 5},
	}
}

func TestCSRValidate(t *testing.T) {
	m := smallCSR()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 5 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	if m.Bytes() != 4*4+5*4+5*8 {
		t.Fatalf("Bytes = %d", m.Bytes())
	}
	bad := smallCSR()
	bad.ColIdx[0] = 99
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range column accepted")
	}
	bad2 := smallCSR()
	bad2.RowPtr[1] = 3
	bad2.RowPtr[2] = 2
	if err := bad2.Validate(); err == nil {
		t.Fatal("non-monotone rowptr accepted")
	}
	bad3 := smallCSR()
	bad3.Val = bad3.Val[:3]
	if err := bad3.Validate(); err == nil {
		t.Fatal("val/colidx mismatch accepted")
	}
}

func TestRMATShape(t *testing.T) {
	g := RMAT(RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 1})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Rows != 1024 || g.NNZ() != 1024*8 {
		t.Fatalf("shape %d/%d", g.Rows, g.NNZ())
	}
	// Power-law-ish: the max row degree should far exceed the mean.
	maxDeg := int32(0)
	for r := 0; r < g.Rows; r++ {
		if d := g.RowPtr[r+1] - g.RowPtr[r]; d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 8*4 {
		t.Fatalf("max degree %d suspiciously uniform (mean 8)", maxDeg)
	}
	// Deterministic.
	g2 := RMAT(RMATConfig{Scale: 10, EdgeFactor: 8, Seed: 1})
	for i := range g.ColIdx {
		if g.ColIdx[i] != g2.ColIdx[i] {
			t.Fatal("RMAT not deterministic")
		}
	}
}

func TestRowBins(t *testing.T) {
	g := RMAT(RMATConfig{Scale: 8, EdgeFactor: 8, Seed: 2})
	bins := RowBins(g, 4)
	if len(bins) != 4 {
		t.Fatalf("bins = %d", len(bins))
	}
	if bins[0][0] != 0 || bins[3][1] != g.Rows {
		t.Fatalf("bins don't cover: %v", bins)
	}
	for i := 1; i < 4; i++ {
		if bins[i][0] != bins[i-1][1] {
			t.Fatalf("bins not contiguous: %v", bins)
		}
	}
	nnz := BinNNZ(g, bins)
	var total int
	for _, n := range nnz {
		total += n
	}
	if total != g.NNZ() {
		t.Fatalf("bin nnz sums to %d, want %d", total, g.NNZ())
	}
}

func TestSpGEMMAgainstDense(t *testing.T) {
	a := RMAT(RMATConfig{Scale: 6, EdgeFactor: 4, Seed: 3})
	b := RMAT(RMATConfig{Scale: 6, EdgeFactor: 4, Seed: 4})
	want := MultiplyDense(a, b)

	// Compute C in two bins and compare against dense.
	bins := RowBins(a, 2)
	for _, bin := range bins {
		rowNNZ, gathers := SymbolicRange(a, b, bin[0], bin[1])
		if gathers <= 0 {
			t.Fatal("no gathers counted")
		}
		c, flops := NumericRange(a, b, bin[0], bin[1], rowNNZ)
		if flops != gathers {
			t.Fatalf("numeric flops %d != symbolic gathers %d", flops, gathers)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < c.Rows; r++ {
			got := make([]float64, b.Cols)
			for p := c.RowPtr[r]; p < c.RowPtr[r+1]; p++ {
				got[c.ColIdx[p]] = c.Val[p]
			}
			for col := 0; col < b.Cols; col++ {
				if math.Abs(got[col]-want[bin[0]+r][col]) > 1e-9 {
					t.Fatalf("C[%d][%d] = %v, want %v", bin[0]+r, col, got[col], want[bin[0]+r][col])
				}
			}
		}
	}
}

func TestSymbolicMatchesNumericStructure(t *testing.T) {
	f := func(seed int64) bool {
		a := RMAT(RMATConfig{Scale: 5, EdgeFactor: 3, Seed: seed})
		b := RMAT(RMATConfig{Scale: 5, EdgeFactor: 3, Seed: seed + 1})
		rowNNZ, _ := SymbolicRange(a, b, 0, a.Rows)
		c, _ := NumericRange(a, b, 0, a.Rows, rowNNZ)
		if c.Validate() != nil {
			return false
		}
		for r := 0; r < c.Rows; r++ {
			if c.RowPtr[r+1]-c.RowPtr[r] != rowNNZ[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSDistances(t *testing.T) {
	// Path graph 0 -> 1 -> 2 -> 3 plus isolated vertex 4.
	g := &CSR{
		Rows: 5, Cols: 5,
		RowPtr: []int32{0, 1, 2, 3, 3, 3},
		ColIdx: []int32{1, 2, 3},
		Val:    []float64{1, 1, 1},
	}
	tr := NewTraverser(g, [][2]int{{0, 5}})
	levels, edges, err := tr.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range []bool{true, true, true, true, false} {
		if reached(tr, v) != want {
			t.Fatalf("reached[%d] = %v, want %v", v, reached(tr, v), want)
		}
	}
	if levels != 3 || edges != 3 {
		t.Fatalf("levels = %d, edges = %d; want 3 and 3", levels, edges)
	}
	if _, _, err := tr.BFS(99); err == nil {
		t.Fatal("bad source accepted")
	}
	if _, _, err := tr.BFS(-1); err == nil {
		t.Fatal("negative source accepted")
	}
}

func TestBFSEdgeAttribution(t *testing.T) {
	g := RMAT(RMATConfig{Scale: 8, EdgeFactor: 8, Seed: 5})
	tr := NewTraverser(g, RowBins(g, 4))
	_, edges, err := tr.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	byPart, matrix := tr.Counts()
	var total, fromMatrix int64
	for s, e := range byPart {
		total += e
		for _, n := range matrix[s] {
			fromMatrix += n
		}
	}
	// Every edge of a reached vertex is relaxed exactly once.
	var wantTotal int64
	for v := 0; v < g.Rows; v++ {
		if reached(tr, v) {
			wantTotal += int64(g.RowPtr[v+1] - g.RowPtr[v])
		}
	}
	if total != wantTotal || edges != wantTotal || fromMatrix != wantTotal {
		t.Fatalf("attributed edges %d, search edges %d, matrix edges %d; relaxed edges %d", total, edges, fromMatrix, wantTotal)
	}
}

func TestBFSMatchesSerialReference(t *testing.T) {
	g := RMAT(RMATConfig{Scale: 7, EdgeFactor: 6, Seed: 6})
	tr := NewTraverser(g, RowBins(g, 3))
	levels, _, err := tr.BFS(3)
	if err != nil {
		t.Fatal(err)
	}
	// Serial reference.
	dist := make([]int32, g.Rows)
	for i := range dist {
		dist[i] = -1
	}
	dist[3] = 0
	q := []int32{3}
	for len(q) > 0 {
		u := q[0]
		q = q[1:]
		for p := g.RowPtr[u]; p < g.RowPtr[u+1]; p++ {
			v := g.ColIdx[p]
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				q = append(q, v)
			}
		}
	}
	var ecc int32
	for i, d := range dist {
		if reached(tr, i) != (d >= 0) {
			t.Fatalf("reached[%d] = %v, reference distance %d", i, reached(tr, i), d)
		}
		ecc = max(ecc, d)
	}
	if levels != int(ecc) {
		t.Fatalf("levels %d, reference eccentricity %d", levels, ecc)
	}
}

func TestTranspose(t *testing.T) {
	m := smallCSR()
	tr := Transpose(m)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// (Aᵀ)ᵀ == A structurally and numerically.
	back := Transpose(tr)
	if back.Rows != m.Rows || back.NNZ() != m.NNZ() {
		t.Fatalf("round trip shape %d/%d", back.Rows, back.NNZ())
	}
	dense := MultiplyDense(m, identity(3))
	denseT := MultiplyDense(tr, identity(3))
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			if dense[r][c] != denseT[c][r] {
				t.Fatalf("transpose mismatch at %d,%d", r, c)
			}
		}
	}
}

func identity(n int) *CSR {
	id := &CSR{Rows: n, Cols: n, RowPtr: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		id.RowPtr[i+1] = int32(i + 1)
		id.ColIdx = append(id.ColIdx, int32(i))
		id.Val = append(id.Val, 1)
	}
	return id
}

func TestWeightedBinsInterpolates(t *testing.T) {
	g := RMAT(RMATConfig{Scale: 12, EdgeFactor: 8, Seed: 9})
	check := func(bins [][2]int) (maxNNZ, minNNZ int) {
		if bins[0][0] != 0 || bins[len(bins)-1][1] != g.Rows {
			t.Fatalf("bins don't cover: %v", bins)
		}
		for i := 1; i < len(bins); i++ {
			if bins[i][0] != bins[i-1][1] {
				t.Fatalf("bins not contiguous: %v", bins)
			}
		}
		nnz := BinNNZ(g, bins)
		minNNZ = nnz[0]
		for _, n := range nnz {
			if n > maxNNZ {
				maxNNZ = n
			}
			if n < minNNZ {
				minNNZ = n
			}
		}
		return maxNNZ, minNNZ
	}
	// vertexWeight = 0 balances non-zeros alone (near-equal edges).
	mx0, mn0 := check(WeightedBins(g, 8, 0))
	// Large vertexWeight approaches RowBins (hub-skewed).
	mxBig, _ := check(WeightedBins(g, 8, 1e9))
	if mn0 == 0 {
		t.Fatal("balanced bins should all carry edges")
	}
	skew0 := float64(mx0) / float64(mn0)
	if skew0 > 2.5 {
		t.Fatalf("edge-balanced bins too skewed: %.1fx", skew0)
	}
	mxRow, _ := check(RowBins(g, 8))
	if mxBig < mxRow/2 {
		t.Fatalf("huge vertex weight (%d) should approach row binning (%d)", mxBig, mxRow)
	}
	// Intermediate weight sits between the extremes.
	mxMid, _ := check(WeightedBins(g, 8, 16))
	if !(mxMid >= mx0 && mxMid <= mxRow) {
		t.Fatalf("intermediate binning (%d) should sit between %d and %d", mxMid, mx0, mxRow)
	}
}

func TestPermutePreservesStructure(t *testing.T) {
	g := RMAT(RMATConfig{Scale: 8, EdgeFactor: 6, Seed: 10})
	p := Permute(g, 11)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NNZ() != g.NNZ() || p.Rows != g.Rows {
		t.Fatalf("permute changed shape: %d/%d vs %d/%d", p.Rows, p.NNZ(), g.Rows, g.NNZ())
	}
	// Degree multiset is preserved.
	deg := func(m *CSR) []int {
		out := make([]int, 0, m.Rows)
		for r := 0; r < m.Rows; r++ {
			out = append(out, int(m.RowPtr[r+1]-m.RowPtr[r]))
		}
		sort.Ints(out)
		return out
	}
	dg, dp := deg(g), deg(p)
	for i := range dg {
		if dg[i] != dp[i] {
			t.Fatal("permutation changed the degree distribution")
		}
	}
	// Value sum preserved.
	var sg, sp float64
	for _, v := range g.Val {
		sg += v
	}
	for _, v := range p.Val {
		sp += v
	}
	if math.Abs(sg-sp) > 1e-9 {
		t.Fatal("permutation changed values")
	}
}

func TestRMATExplicitEdgeCount(t *testing.T) {
	g := RMAT(RMATConfig{Scale: 8, Edges: 777, Seed: 12})
	if g.NNZ() != 777 {
		t.Fatalf("explicit edge count ignored: %d", g.NNZ())
	}
}
