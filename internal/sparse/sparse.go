// Package sparse provides the sparse-matrix and graph substrate the
// SpGEMM and BFS applications are built on: a CSR matrix type, an
// RMAT/Kronecker generator standing in for the paper's GAP-kron and
// com-Orkut inputs, Gustavson's SpGEMM (symbolic + numeric, the Ginkgo
// structure of Figure 1.b), and a level-synchronous BFS that counts edge
// work per vertex partition.
//
// These run for real — the applications derive their simulator workloads
// from actual per-task non-zero and edge counts, and tests verify results
// against dense/serial references.
package sparse

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
)

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	Rows, Cols int
	RowPtr     []int32
	ColIdx     []int32
	Val        []float64
}

// NNZ returns the number of stored non-zeros.
func (m *CSR) NNZ() int { return len(m.ColIdx) }

// Bytes returns the in-memory footprint of the matrix data.
func (m *CSR) Bytes() uint64 {
	return uint64(len(m.RowPtr))*4 + uint64(len(m.ColIdx))*4 + uint64(len(m.Val))*8
}

// Validate checks structural invariants. A nil Val is a structure-only
// matrix; otherwise there is one value per index.
func (m *CSR) Validate() error {
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("sparse: rowptr length %d for %d rows", len(m.RowPtr), m.Rows)
	}
	if m.RowPtr[0] != 0 || int(m.RowPtr[m.Rows]) != len(m.ColIdx) {
		return fmt.Errorf("sparse: rowptr endpoints %d..%d for %d nnz", m.RowPtr[0], m.RowPtr[m.Rows], len(m.ColIdx))
	}
	if m.Val != nil && len(m.Val) != len(m.ColIdx) {
		return fmt.Errorf("sparse: %d values for %d indices", len(m.Val), len(m.ColIdx))
	}
	for r := 0; r < m.Rows; r++ {
		if m.RowPtr[r] > m.RowPtr[r+1] {
			return fmt.Errorf("sparse: rowptr not monotone at row %d", r)
		}
	}
	for _, c := range m.ColIdx {
		if c < 0 || int(c) >= m.Cols {
			return fmt.Errorf("sparse: column %d out of range %d", c, m.Cols)
		}
	}
	return nil
}

// RMATConfig parameterizes the recursive-matrix (Kronecker) generator used
// by Graph500 and the GAP suite; the paper's GAP-kron and com-Orkut-like
// inputs come from this family.
type RMATConfig struct {
	Scale      int // 2^Scale vertices
	EdgeFactor int // average edges per vertex
	// Edges, when positive, sets the exact edge count (overrides
	// EdgeFactor) — used to vary input sizes continuously.
	Edges   int
	A, B, C float64
	Seed    int64
	// Unweighted skips the values: Val stays nil. They are drawn after
	// every edge, so RowPtr and ColIdx are those of the weighted matrix.
	Unweighted bool
}

func (c RMATConfig) withDefaults() RMATConfig {
	if c.A == 0 && c.B == 0 && c.C == 0 {
		c.A, c.B, c.C = 0.57, 0.19, 0.19 // Graph500 parameters
	}
	if c.EdgeFactor <= 0 {
		c.EdgeFactor = 16
	}
	return c
}

// RMAT generates an RMAT matrix/graph in CSR form. Duplicate edges are
// kept (weighted), self-loops allowed — matching common kron inputs.
// Values are in [0, 1). A, B and C are quadrant probabilities: they must
// be non-negative.
//
// Draws: every draw is the next rand.New(rand.NewSource(Seed)).Float64(),
// taken through lagFib as the 63-bit integer Float64 divides by 2^63.
//
// Ordering: every edge draws its Scale quadrant bits first; the edges are
// then counting-sorted by row into RowPtr's segments and each segment is
// sorted by column, so each row lists its columns ascending, duplicates
// adjacent. The values are drawn last, in that CSR order. The (row, col)
// pairs carry nothing else, so any correct sort yields the same matrix.
// With Unweighted set the value draws are skipped; nothing drawn before
// them changes, so the graph is the same.
func RMAT(cfg RMATConfig) *CSR {
	cfg = cfg.withDefaults()
	n := 1 << cfg.Scale
	m := n * cfg.EdgeFactor
	if cfg.Edges > 0 {
		m = cfg.Edges
	}
	g := newLagFib(cfg.Seed)
	one := drawThreshold(1)

	// One draw p per bit, most significant first, picks the quadrant:
	// [0, a) top-left, [a, ab) top-right, [ab, abc) bottom-left, the rest
	// bottom-right. With non-negative weights the thresholds are ordered,
	// so the number q of them at or below p is the quadrant's index: its
	// high bit is the row bit, its low bit the column bit. p ≥ t exactly
	// when the draw reaches t's integer threshold.
	a, ab := cfg.A, cfg.A+cfg.B
	abc := ab + cfg.C
	ta, tab, tabc := drawThreshold(a), drawThreshold(ab), drawThreshold(abc)
	type edge struct{ r, c int32 }
	edges := make([]edge, m)
	out := &CSR{Rows: n, Cols: n, RowPtr: make([]int32, n+1)}
	for i := range edges {
		var r, c int32
		for range cfg.Scale {
			x := g.draw(one)
			q := atOrAbove(x, ta) + atOrAbove(x, tab) + atOrAbove(x, tabc)
			r = r<<1 | q>>1
			c = c<<1 | q&1
		}
		edges[i] = edge{r, c}
		out.RowPtr[r+1]++
	}
	for r := 0; r < n; r++ {
		out.RowPtr[r+1] += out.RowPtr[r]
	}
	out.ColIdx = make([]int32, m)
	next := append([]int32(nil), out.RowPtr[:n]...)
	for _, e := range edges {
		out.ColIdx[next[e.r]] = e.c
		next[e.r]++
	}
	for r := 0; r < n; r++ {
		slices.Sort(out.ColIdx[out.RowPtr[r]:out.RowPtr[r+1]])
	}
	if cfg.Unweighted {
		return out
	}
	out.Val = make([]float64, m)
	for i := range out.Val {
		out.Val[i] = unit(g.draw(one))
	}
	return out
}

// Transpose returns Aᵀ in CSR form (a stable counting sort over
// columns). A structure-only matrix (nil Val) gives one.
func Transpose(m *CSR) *CSR {
	out := &CSR{
		Rows: m.Cols, Cols: m.Rows,
		RowPtr: make([]int32, m.Cols+1),
		ColIdx: make([]int32, m.NNZ()),
	}
	if m.Val != nil {
		out.Val = make([]float64, m.NNZ())
	}
	for _, c := range m.ColIdx {
		out.RowPtr[c+1]++
	}
	for r := 0; r < out.Rows; r++ {
		out.RowPtr[r+1] += out.RowPtr[r]
	}
	next := append([]int32(nil), out.RowPtr[:out.Rows]...)
	for r := 0; r < m.Rows; r++ {
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			c := m.ColIdx[p]
			out.ColIdx[next[c]] = int32(r)
			if out.Val != nil {
				out.Val[next[c]] = m.Val[p]
			}
			next[c]++
		}
	}
	return out
}

// RowBins partitions rows into bins with roughly equal row counts (the
// Figure 1.b binning); returns [start, end) row ranges. Equal row counts
// with a power-law nnz distribution is exactly the inherent load imbalance
// the paper attributes to SpGEMM.
func RowBins(m *CSR, bins int) [][2]int {
	if bins < 1 {
		bins = 1
	}
	out := make([][2]int, bins)
	per := (m.Rows + bins - 1) / bins
	for b := 0; b < bins; b++ {
		lo := b * per
		hi := lo + per
		if lo > m.Rows {
			lo = m.Rows
		}
		if hi > m.Rows {
			hi = m.Rows
		}
		out[b] = [2]int{lo, hi}
	}
	return out
}

// Permute relabels vertices with a random permutation (rows and columns
// alike), preserving the graph up to isomorphism. Generated RMAT matrices
// concentrate hubs at low vertex ids; real-world inputs (GAP-kron,
// com-Orkut) arrive in arbitrary label order, which this restores. It
// carries values only when m has them.
//
// Ordering: old row r's entries move, columns relabeled, to new row
// relabel[r]; two transposes (each a stable counting sort over columns)
// then sort every row by column. Entries sharing a (row, col) keep their
// input order.
func Permute(m *CSR, seed int64) *CSR {
	p, _ := PermuteAndTranspose(m, seed)
	return p
}

// PermuteAndTranspose returns Permute(m, seed) and its transpose. The
// transpose is the first of Permute's two, so it costs nothing extra. It
// equals Transpose(p), values included: its rows are sorted already, and
// two stable transposes give a row-sorted matrix back unchanged.
func PermuteAndTranspose(m *CSR, seed int64) (p, pt *CSR) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(m.Rows)
	relabel := make([]int32, m.Rows)
	for old, new := range perm {
		relabel[old] = int32(new)
	}
	x := &CSR{
		Rows: m.Rows, Cols: m.Cols,
		RowPtr: make([]int32, m.Rows+1),
		ColIdx: make([]int32, m.NNZ()),
	}
	if m.Val != nil {
		x.Val = make([]float64, m.NNZ())
	}
	for r := 0; r < m.Rows; r++ {
		x.RowPtr[relabel[r]+1] = m.RowPtr[r+1] - m.RowPtr[r]
	}
	for r := 0; r < x.Rows; r++ {
		x.RowPtr[r+1] += x.RowPtr[r]
	}
	for r := 0; r < m.Rows; r++ {
		dst := x.RowPtr[relabel[r]]
		for p := m.RowPtr[r]; p < m.RowPtr[r+1]; p++ {
			x.ColIdx[dst] = relabel[m.ColIdx[p]]
			if x.Val != nil {
				x.Val[dst] = m.Val[p]
			}
			dst++
		}
	}
	pt = Transpose(x)
	return Transpose(pt), pt
}

// NNZBins partitions rows into bins with roughly equal *non-zero* counts
// (Ginkgo's balancing strategy). The remaining imbalance then comes from
// the gather work per non-zero, which row counting cannot see.
func NNZBins(m *CSR, bins int) [][2]int {
	if bins < 1 {
		bins = 1
	}
	out := make([][2]int, bins)
	per := (m.NNZ() + bins - 1) / bins
	row := 0
	for b := 0; b < bins; b++ {
		lo := row
		target := int32((b + 1) * per)
		for row < m.Rows && m.RowPtr[row+1] < target {
			row++
		}
		if row < m.Rows {
			row++
		}
		if b == bins-1 {
			row = m.Rows
		}
		out[b] = [2]int{lo, row}
	}
	return out
}

// WeightedBins partitions rows into bins balancing the mixed weight
// nnz + vertexWeight·rows. It interpolates between RowBins (vertexWeight
// → ∞) and NNZBins (vertexWeight = 0): the partial balance real graph
// partitioners achieve, which leaves the hub partitions heavier without
// RowBins' pathological skew.
func WeightedBins(m *CSR, bins int, vertexWeight float64) [][2]int {
	if bins < 1 {
		bins = 1
	}
	total := float64(m.NNZ()) + vertexWeight*float64(m.Rows)
	per := total / float64(bins)
	out := make([][2]int, bins)
	row := 0
	var acc float64
	for b := 0; b < bins; b++ {
		lo := row
		target := float64(b+1) * per
		for row < m.Rows && acc < target {
			acc += float64(m.RowPtr[row+1]-m.RowPtr[row]) + vertexWeight
			row++
		}
		if b == bins-1 {
			row = m.Rows
		}
		out[b] = [2]int{lo, row}
	}
	return out
}

// BinNNZ returns the number of non-zeros in each row bin.
func BinNNZ(m *CSR, bins [][2]int) []int {
	out := make([]int, len(bins))
	for i, b := range bins {
		out[i] = int(m.RowPtr[b[1]] - m.RowPtr[b[0]])
	}
	return out
}

// SymbolicRange computes, for rows [lo, hi) of A, the number of non-zeros
// of each row of C = A·B (Gustavson symbolic phase) and the total number
// of B-row gathers performed (the task's true memory workload).
func SymbolicRange(a, b *CSR, lo, hi int) (rowNNZ []int32, gathers int64) {
	rowNNZ = make([]int32, hi-lo)
	marker := make([]int32, b.Cols)
	for i := range marker {
		marker[i] = -1
	}
	for r := lo; r < hi; r++ {
		var count int32
		for ap := a.RowPtr[r]; ap < a.RowPtr[r+1]; ap++ {
			ac := a.ColIdx[ap]
			for bp := b.RowPtr[ac]; bp < b.RowPtr[ac+1]; bp++ {
				gathers++
				bc := b.ColIdx[bp]
				if marker[bc] != int32(r-lo+1) {
					marker[bc] = int32(r - lo + 1)
					count++
				}
			}
		}
		rowNNZ[r-lo] = count
	}
	return rowNNZ, gathers
}

// NumericRange computes rows [lo, hi) of C = A·B given the symbolic row
// sizes, returning the C slice for the range and the number of multiply-
// adds.
func NumericRange(a, b *CSR, lo, hi int, rowNNZ []int32) (*CSR, int64) {
	c := &CSR{Rows: hi - lo, Cols: b.Cols, RowPtr: make([]int32, hi-lo+1)}
	var total int32
	for i, n := range rowNNZ {
		c.RowPtr[i+1] = c.RowPtr[i] + n
		total += n
	}
	c.ColIdx = make([]int32, total)
	c.Val = make([]float64, total)

	acc := make([]float64, b.Cols)
	pos := make([]int32, b.Cols)
	for i := range pos {
		pos[i] = -1
	}
	var flops int64
	for r := lo; r < hi; r++ {
		start := c.RowPtr[r-lo]
		cur := start
		for ap := a.RowPtr[r]; ap < a.RowPtr[r+1]; ap++ {
			ac := a.ColIdx[ap]
			av := a.Val[ap]
			for bp := b.RowPtr[ac]; bp < b.RowPtr[ac+1]; bp++ {
				bc := b.ColIdx[bp]
				flops++
				if pos[bc] < start {
					pos[bc] = cur
					c.ColIdx[cur] = bc
					acc[bc] = av * b.Val[bp]
					cur++
				} else {
					acc[bc] += av * b.Val[bp]
				}
			}
		}
		for p := start; p < cur; p++ {
			c.Val[p] = acc[c.ColIdx[p]]
		}
		// Reset position markers for the next row.
		for p := start; p < cur; p++ {
			pos[c.ColIdx[p]] = -1
		}
	}
	return c, flops
}

// MultiplyDense is the O(n³)-ish reference used by tests on tiny inputs.
func MultiplyDense(a, b *CSR) [][]float64 {
	out := make([][]float64, a.Rows)
	for r := range out {
		out[r] = make([]float64, b.Cols)
		for ap := a.RowPtr[r]; ap < a.RowPtr[r+1]; ap++ {
			ac := a.ColIdx[ap]
			av := a.Val[ap]
			for bp := b.RowPtr[ac]; bp < b.RowPtr[ac+1]; bp++ {
				out[r][b.ColIdx[bp]] += av * b.Val[bp]
			}
		}
	}
	return out
}

// Traverser runs breadth-first searches over one graph and attributes
// each search's edge work to a fixed vertex partitioning. partitions
// gives [lo, hi) vertex ranges; a relaxed edge counts for the partition
// owning its *source* vertex (owner-computes, as in distributed BFS). A
// vertex no range covers belongs to partition 0, and where ranges
// overlap the later one owns the vertex. There must be at least one
// partition.
//
// A search records only what a level-synchronous BFS's counts depend on:
// a visited bitmap (one bit per vertex), the number of levels and the
// out-degree sum of the vertices reached. The per-partition counts are
// integer sums over the reached vertices' out-edges, so they depend on
// the reached set alone, never on the order a traversal visits it:
// Counts recomputes them only when the reached set differs from the one
// it counted last, and otherwise hands back the same counts.
type Traverser struct {
	g     *CSR
	parts int
	owner []int32

	seen           []uint64 // the last search's reached set
	frontier, next []int32

	counted []uint64 // the reached set byPart and matrix belong to
	byPart  []int64
	matrix  [][]int64
}

// NewTraverser prepares searches over g with the given partitions.
func NewTraverser(g *CSR, partitions [][2]int) *Traverser {
	owner := make([]int32, g.Rows)
	for p, pr := range partitions {
		for v := pr[0]; v < pr[1] && v < g.Rows; v++ {
			owner[v] = int32(p)
		}
	}
	return &Traverser{g: g, parts: len(partitions), owner: owner, seen: make([]uint64, (g.Rows+63)/64)}
}

// BFS runs a level-synchronous breadth-first search from src. It returns
// levels, the eccentricity of the source (the largest distance
// reached), and edges, the number of edges the search relaxes: every
// out-edge of every reached vertex, relaxed once.
func (t *Traverser) BFS(src int) (levels int, edges int64, err error) {
	g := t.g
	if src < 0 || src >= g.Rows {
		return 0, 0, fmt.Errorf("sparse: bfs source %d out of range %d", src, g.Rows)
	}
	clear(t.seen)
	t.seen[src>>6] |= 1 << (src & 63)
	frontier := append(t.frontier[:0], int32(src))
	next := t.next[:0]
	for len(frontier) > 0 {
		next = next[:0]
		for _, u := range frontier {
			lo, hi := g.RowPtr[u], g.RowPtr[u+1]
			edges += int64(hi - lo)
			for _, v := range g.ColIdx[lo:hi] {
				w, bit := v>>6, uint64(1)<<(uint32(v)&63)
				if t.seen[w]&bit == 0 {
					t.seen[w] |= bit
					next = append(next, v)
				}
			}
		}
		if len(next) > 0 {
			levels++
		}
		frontier, next = next, frontier
	}
	t.frontier, t.next = frontier, next
	return levels, edges, nil
}

// Counts returns the last search's edge relaxations per partition:
// byPart[s] counts the out-edges of the reached vertices partition s
// owns — the per-task workload of the BFS application — and
// matrix[s][d] those of them whose target partition d owns, where each
// task's distance-array updates land. They are computed only when the
// reached set differs from the one counted last; otherwise the previous
// slices come back, so callers must not modify them.
func (t *Traverser) Counts() (byPart []int64, matrix [][]int64) {
	if t.byPart != nil && slices.Equal(t.seen, t.counted) {
		return t.byPart, t.matrix
	}
	g, owner := t.g, t.owner
	byPart = make([]int64, t.parts)
	matrix = make([][]int64, t.parts)
	for i := range matrix {
		matrix[i] = make([]int64, t.parts)
	}
	for w, word := range t.seen {
		for ; word != 0; word &= word - 1 {
			u := w<<6 | bits.TrailingZeros64(word)
			lo, hi := g.RowPtr[u], g.RowPtr[u+1]
			byPart[owner[u]] += int64(hi - lo)
			row := matrix[owner[u]]
			for _, v := range g.ColIdx[lo:hi] {
				row[owner[v]]++
			}
		}
	}
	t.counted = append(t.counted[:0], t.seen...)
	t.byPart, t.matrix = byPart, matrix
	return byPart, matrix
}
