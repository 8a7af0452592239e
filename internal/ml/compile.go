package ml

// This file is the compiled inference engine: fitted trees are lowered
// into contiguous flat node tables (feature index, split threshold,
// int32 child indices, leaf value) that the placement hot path walks
// instead of the pointer-linked treeNodes built at fit time. The
// per-tree CompiledTree keeps struct-of-arrays columns in dump order;
// the ensemble kernel re-packs them into one interleaved record per
// node, laid out breadth-first so a walk advances by integer
// arithmetic with no data-dependent branch, and runs several
// independent walks in lockstep so their load chains overlap (see
// NodeRec). The batch kernel additionally iterates rows over one
// tree at a time in fixed row blocks so the tree's nodes stay cache-
// hot across the whole block.
//
// Compilation never changes a prediction: the compiled walk performs
// the identical float64 comparisons in the identical order as the
// pointer walk, and the ensemble kernels accumulate stages/trees in fit
// order per row, so every output is bit-identical to the pointer path
// (enforced by the differential tests in compile_test.go). Models
// compile themselves after Fit, and LoadFlat installs a persisted
// kernel table as-is — a restored model predicts without ever
// rebuilding a pointer tree.

import (
	"math"
	"slices"
)

// leafNode marks a leaf in a node table's feature column.
const leafNode int32 = -1

// maxFeatureIndex bounds split feature indices so hostile dumps cannot
// overflow the int32 feature column (real models have single-digit
// feature counts).
const maxFeatureIndex = 1 << 20

// batchBlock is the batch kernel's row-block size: small enough that a
// block of row accumulators stays resident in L1, large enough to
// amortize re-walking the tree list per block.
const batchBlock = 256

// CompiledTree is one regression tree lowered to a flat node table.
// Index 0 is the root; internal nodes store the split feature and
// threshold, leaves store the prediction in the same value column.
type CompiledTree struct {
	feature []int32 // split feature, or leafNode
	left    []int32 // child node indices (internal nodes only)
	right   []int32
	val     []float64 // threshold (internal) or prediction (leaf)
}

// NumNodes returns the node-table size.
func (c *CompiledTree) NumNodes() int { return len(c.feature) }

// Predict walks the flat table; it allocates nothing.
func (c *CompiledTree) Predict(x []float64) float64 {
	i := int32(0)
	f := c.feature[i]
	for f >= 0 {
		if x[f] <= c.val[i] {
			i = c.left[i]
		} else {
			i = c.right[i]
		}
		f = c.feature[i]
	}
	return c.val[i]
}

// PredictAll evaluates every row of X.
func (c *CompiledTree) PredictAll(X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = c.Predict(x)
	}
	return out
}

// NodeDump is one node of a tree's preorder flattening, the form Fit
// lowers its pointer tree through on the way to the node table.
// Internal nodes carry the split (Feature, Threshold) and child
// indices; leaves carry the prediction.
type NodeDump struct {
	Feature   int     `json:"f,omitempty"`
	Threshold float64 `json:"t,omitempty"`
	Left      int     `json:"l,omitempty"`
	Right     int     `json:"r,omitempty"`
	Value     float64 `json:"v,omitempty"`
	Leaf      bool    `json:"leaf,omitempty"`
}

// dumpNode flattens the subtree rooted at n in preorder, returning the
// node's index.
func dumpNode(n *treeNode, nodes *[]NodeDump) int {
	idx := len(*nodes)
	*nodes = append(*nodes, NodeDump{})
	if n.leaf {
		(*nodes)[idx] = NodeDump{Value: n.value, Leaf: true}
		return idx
	}
	l := dumpNode(n.left, nodes)
	r := dumpNode(n.right, nodes)
	(*nodes)[idx] = NodeDump{Feature: n.feature, Threshold: n.threshold, Left: l, Right: r}
	return idx
}

// compileDump lowers a flat preorder dump into a node table, enforcing
// well-formedness: every node reachable from the root exactly once (no
// cycles, shared subtrees or dangling nodes), in-range child indices,
// finite floats. The table preserves the dump's node indices.
func compileDump(nodes []NodeDump) (*CompiledTree, error) {
	n := len(nodes)
	if n == 0 {
		return nil, badModel("tree dump has no nodes")
	}
	c := &CompiledTree{
		feature: make([]int32, n),
		left:    make([]int32, n),
		right:   make([]int32, n),
		val:     make([]float64, n),
	}
	visited := make([]bool, n)
	// Iterative preorder DFS from the root, visiting each node at most
	// once — the flat-table analogue of the recursive buildNode walk.
	stack := make([]int, 1, 64)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if i < 0 || i >= n {
			return nil, badModel("tree node index %d out of range [0,%d)", i, n)
		}
		if visited[i] {
			return nil, badModel("tree node %d referenced twice", i)
		}
		visited[i] = true
		nd := nodes[i]
		if nd.Leaf {
			if !isFinite(nd.Value) {
				return nil, badModel("tree leaf %d has non-finite value", i)
			}
			c.feature[i] = leafNode
			c.val[i] = nd.Value
			continue
		}
		if nd.Feature < 0 {
			return nil, badModel("tree node %d has negative feature index", i)
		}
		if nd.Feature > maxFeatureIndex {
			return nil, badModel("tree node %d has implausible feature index %d", i, nd.Feature)
		}
		if !isFinite(nd.Threshold) {
			return nil, badModel("tree node %d has non-finite threshold", i)
		}
		c.feature[i] = int32(nd.Feature)
		c.val[i] = nd.Threshold
		c.left[i] = int32(nd.Left)
		c.right[i] = int32(nd.Right)
		stack = append(stack, nd.Right, nd.Left)
	}
	for i, v := range visited {
		if !v {
			return nil, badModel("tree node %d unreachable from root", i)
		}
	}
	return c, nil
}

// Compile returns the tree's flat inference engine. Fit always builds
// the table, so this only fails on an unfitted tree.
func (t *DecisionTree) Compile() (*CompiledTree, error) {
	if !t.fitted || t.flat == nil {
		return nil, ErrNotFitted
	}
	return t.flat, nil
}

// NodeRec is one node of the ensemble kernel's table. The per-tree
// CompiledTree keeps struct-of-arrays columns in preorder, but the walk loop touches every field of exactly one node
// per step, so the kernel interleaves the columns back into one
// 24-byte record: one bounds check and at most one cache-line fill per
// step instead of four of each across parallel slices. The table is
// laid out breadth-first with sibling nodes adjacent, so there is no
// right-child pointer: the right child lives at Left+1, and the walk
// advances with pure integer arithmetic (Left plus a materialized
// compare bit) instead of a data-dependent branch or conditional move.
// Leaves carry a +Inf threshold and point Left at themselves, so a
// walk that has reached its leaf parks there under further steps.
//
// NodeRec is also the serialization ABI of the compiled engine: the
// binary artifact format of internal/store persists exactly these
// records, 24 bytes each, little-endian, in table order (see flat.go),
// so a restored model's kernel table is a single contiguous read of
// the section payload.
type NodeRec struct {
	Thresh  float64 // split threshold; +Inf marks a leaf
	Pred    float64 // leaf prediction (0 on internal nodes)
	Feature int32   // split feature; 0 on leaves (a safe x index)
	Left    int32   // left child; right child is Left+1; leaves: self
}

// nodeTable is an ensemble's trees concatenated into one contiguous
// node table; roots[k] is tree k's root index and child indices are
// absolute, so a whole forest walks a single slice. depth[k] is tree
// k's height — the batch kernel walks every row exactly depth[k] steps
// (parked lanes self-loop), which lets it run several rows in lockstep
// with no per-step termination branch.
type nodeTable struct {
	nodes []NodeRec
	roots []int32
	depth []int32
}

// appendTree relays one compiled tree into the kernel table in
// breadth-first order, placing each internal node's children in
// adjacent slots and rebasing indices to be absolute.
func (nt *nodeTable) appendTree(c *CompiledTree) {
	off := int32(len(nt.nodes))
	nt.roots = append(nt.roots, off)
	nt.depth = append(nt.depth, treeHeight(c, 0))
	// order[j] is the preorder index of BFS slot j; children are
	// enqueued in pairs, which is what makes right = left+1 hold.
	order := make([]int32, 1, len(c.feature))
	newIdx := make([]int32, len(c.feature))
	for qi := 0; qi < len(order); qi++ {
		old := order[qi]
		if c.feature[old] == leafNode {
			continue
		}
		l, r := c.left[old], c.right[old]
		newIdx[l] = int32(len(order))
		newIdx[r] = int32(len(order) + 1)
		order = append(order, l, r)
	}
	inf := math.Inf(1)
	for j, old := range order {
		if c.feature[old] == leafNode {
			nt.nodes = append(nt.nodes, NodeRec{Thresh: inf, Pred: c.val[old], Left: off + int32(j)})
		} else {
			nt.nodes = append(nt.nodes, NodeRec{Thresh: c.val[old], Feature: c.feature[old], Left: off + newIdx[c.left[old]]})
		}
	}
}

// treeHeight is the longest root-to-leaf edge count of the subtree at i.
func treeHeight(c *CompiledTree, i int32) int32 {
	if c.feature[i] == leafNode {
		return 0
	}
	l := treeHeight(c, c.left[i])
	r := treeHeight(c, c.right[i])
	if r > l {
		l = r
	}
	return 1 + l
}

// SplitThresholds returns the sorted, distinct thresholds at which a
// fitted tree ensemble splits feature f, read from its compiled node
// table. Every such split tests x[f] <= t. So two rows that differ only
// in x[f], with both values at the same sort.SearchFloat64s index in
// the returned slice, take the same branch at every node of every tree
// and get bit-identical predictions. A value equal to a threshold goes
// left, which is the interval SearchFloat64s returns for it.
//
// ok is false for models without a node table (SVR, KNN, the MLP, a
// lone tree) and for unfitted ensembles. A fitted ensemble that never
// splits on f returns no thresholds and ok: its prediction does not
// depend on x[f] at all.
func SplitThresholds(m Regressor, f int) (thresholds []float64, ok bool) {
	var tab *nodeTable
	switch v := m.(type) {
	case *GradientBoosted:
		if !v.fitted || v.compiled == nil {
			return nil, false
		}
		tab = &v.compiled.tab
	case *RandomForest:
		if !v.fitted || v.compiled == nil {
			return nil, false
		}
		tab = &v.compiled.tab
	default:
		return nil, false
	}
	for _, nd := range tab.nodes {
		// Leaves carry a +Inf threshold and feature 0; skip them.
		if int(nd.Feature) == f && !math.IsInf(nd.Thresh, 1) {
			thresholds = append(thresholds, nd.Thresh)
		}
	}
	slices.Sort(thresholds)
	return slices.Compact(thresholds), true
}

// walk evaluates the tree rooted at root in exactly d steps (the
// tree's height; lanes that reach their leaf early park on its +Inf
// threshold). It performs the identical split comparisons, in the
// identical order, as the pointer walk, so the returned leaf value is
// bit-identical. The child select is integer arithmetic on a
// materialized compare bit and the loop bound is fixed, so the walk
// has no data-dependent branch at all: split outcomes are coin flips
// the branch predictor cannot learn, and with no mispredicts the
// dependent load chains of consecutive walks overlap in the
// out-of-order window.
func (nt *nodeTable) walk(root, d int32, x []float64) float64 {
	nodes := nt.nodes
	i := root
	for s := int32(0); s < d; s++ {
		nd := nodes[i]
		b := int32(1)
		if x[nd.Feature] <= nd.Thresh {
			b = 0
		}
		i = nd.Left + b
	}
	return nodes[i].Pred
}

// accumulate returns init + Σ_t scale·tree_t(x), walking four trees in
// lockstep so their dependent load chains overlap (the lane depth is
// the max of the four heights; shorter lanes park on their leaf). The
// leaf values are still added in fit order, one at a time, so the
// result is bit-identical to accumulating sequential walks.
func (nt *nodeTable) accumulate(init, scale float64, x []float64) float64 {
	nodes := nt.nodes
	roots := nt.roots
	depth := nt.depth
	out := init
	k := 0
	for ; k+8 <= len(roots); k += 8 {
		i0, i1, i2, i3 := roots[k], roots[k+1], roots[k+2], roots[k+3]
		i4, i5, i6, i7 := roots[k+4], roots[k+5], roots[k+6], roots[k+7]
		d := depth[k]
		for _, dk := range depth[k+1 : k+8] {
			if dk > d {
				d = dk
			}
		}
		for s := int32(0); s < d; s++ {
			n0 := nodes[i0]
			b0 := int32(1)
			if x[n0.Feature] <= n0.Thresh {
				b0 = 0
			}
			i0 = n0.Left + b0
			n1 := nodes[i1]
			b1 := int32(1)
			if x[n1.Feature] <= n1.Thresh {
				b1 = 0
			}
			i1 = n1.Left + b1
			n2 := nodes[i2]
			b2 := int32(1)
			if x[n2.Feature] <= n2.Thresh {
				b2 = 0
			}
			i2 = n2.Left + b2
			n3 := nodes[i3]
			b3 := int32(1)
			if x[n3.Feature] <= n3.Thresh {
				b3 = 0
			}
			i3 = n3.Left + b3
			n4 := nodes[i4]
			b4 := int32(1)
			if x[n4.Feature] <= n4.Thresh {
				b4 = 0
			}
			i4 = n4.Left + b4
			n5 := nodes[i5]
			b5 := int32(1)
			if x[n5.Feature] <= n5.Thresh {
				b5 = 0
			}
			i5 = n5.Left + b5
			n6 := nodes[i6]
			b6 := int32(1)
			if x[n6.Feature] <= n6.Thresh {
				b6 = 0
			}
			i6 = n6.Left + b6
			n7 := nodes[i7]
			b7 := int32(1)
			if x[n7.Feature] <= n7.Thresh {
				b7 = 0
			}
			i7 = n7.Left + b7
		}
		out += scale * nodes[i0].Pred
		out += scale * nodes[i1].Pred
		out += scale * nodes[i2].Pred
		out += scale * nodes[i3].Pred
		out += scale * nodes[i4].Pred
		out += scale * nodes[i5].Pred
		out += scale * nodes[i6].Pred
		out += scale * nodes[i7].Pred
	}
	for ; k < len(roots); k++ {
		out += scale * nt.walk(roots[k], depth[k], x)
	}
	return out
}

// batchSum is the batch kernel: for rows [lo, hi) it computes
// out[i] = init + Σ_t scale·tree_t(X[i]), iterating trees in the outer
// loop over fixed row blocks so one tree's slice window stays cache-hot
// across the whole block. Within a block it walks four rows in
// lockstep: every lane takes exactly the tree's height in steps — a
// lane that reaches its leaf early parks there, because a finite
// feature never exceeds the leaf's +Inf threshold — so there is no
// per-step termination branch and the four dependent load chains
// overlap in the out-of-order window. Each row still accumulates trees
// in fit order and finishes on the same leaf value as the single-point
// walk, so out[i] is bit-identical to it for the finite feature
// vectors every caller feeds it (a NaN feature would unpark a finished
// lane; upstream validation rejects non-finite counters and ratios
// before they reach a model).
func (nt *nodeTable) batchSum(X [][]float64, out []float64, lo, hi int, init, scale float64) {
	nodes := nt.nodes
	for b := lo; b < hi; b += batchBlock {
		be := b + batchBlock
		if be > hi {
			be = hi
		}
		for i := b; i < be; i++ {
			out[i] = init
		}
		for k, root := range nt.roots {
			d := nt.depth[k]
			i := b
			for ; i+8 <= be; i += 8 {
				x0, x1, x2, x3 := X[i], X[i+1], X[i+2], X[i+3]
				x4, x5, x6, x7 := X[i+4], X[i+5], X[i+6], X[i+7]
				i0, i1, i2, i3 := root, root, root, root
				i4, i5, i6, i7 := root, root, root, root
				for s := int32(0); s < d; s++ {
					n0 := nodes[i0]
					b0 := int32(1)
					if x0[n0.Feature] <= n0.Thresh {
						b0 = 0
					}
					i0 = n0.Left + b0
					n1 := nodes[i1]
					b1 := int32(1)
					if x1[n1.Feature] <= n1.Thresh {
						b1 = 0
					}
					i1 = n1.Left + b1
					n2 := nodes[i2]
					b2 := int32(1)
					if x2[n2.Feature] <= n2.Thresh {
						b2 = 0
					}
					i2 = n2.Left + b2
					n3 := nodes[i3]
					b3 := int32(1)
					if x3[n3.Feature] <= n3.Thresh {
						b3 = 0
					}
					i3 = n3.Left + b3
					n4 := nodes[i4]
					b4 := int32(1)
					if x4[n4.Feature] <= n4.Thresh {
						b4 = 0
					}
					i4 = n4.Left + b4
					n5 := nodes[i5]
					b5 := int32(1)
					if x5[n5.Feature] <= n5.Thresh {
						b5 = 0
					}
					i5 = n5.Left + b5
					n6 := nodes[i6]
					b6 := int32(1)
					if x6[n6.Feature] <= n6.Thresh {
						b6 = 0
					}
					i6 = n6.Left + b6
					n7 := nodes[i7]
					b7 := int32(1)
					if x7[n7.Feature] <= n7.Thresh {
						b7 = 0
					}
					i7 = n7.Left + b7
				}
				out[i] += scale * nodes[i0].Pred
				out[i+1] += scale * nodes[i1].Pred
				out[i+2] += scale * nodes[i2].Pred
				out[i+3] += scale * nodes[i3].Pred
				out[i+4] += scale * nodes[i4].Pred
				out[i+5] += scale * nodes[i5].Pred
				out[i+6] += scale * nodes[i6].Pred
				out[i+7] += scale * nodes[i7].Pred
			}
			for ; i < be; i++ {
				out[i] += scale * nt.walk(root, d, X[i])
			}
		}
	}
}

// CompiledForest is a RandomForest lowered into one contiguous node
// table (mean of tree predictions).
type CompiledForest struct {
	tab nodeTable
	// Workers bounds PredictAll concurrency (0 = NumCPU); results are
	// identical for any value.
	Workers int
}

// NumTrees returns the ensemble size.
func (c *CompiledForest) NumTrees() int { return len(c.tab.roots) }

// Predict averages the tree walks; it allocates nothing.
func (c *CompiledForest) Predict(x []float64) float64 {
	return c.tab.accumulate(0, 1, x) / float64(len(c.tab.roots))
}

// PredictAll evaluates every row through the batch kernel, chunked
// across the worker pool.
func (c *CompiledForest) PredictAll(X [][]float64) []float64 {
	out := make([]float64, len(X))
	c.predictAllInto(X, out, c.Workers)
	return out
}

func (c *CompiledForest) predictAllInto(X [][]float64, out []float64, workers int) {
	n := float64(len(c.tab.roots))
	parallelChunks(len(X), workers, func(lo, hi int) {
		c.tab.batchSum(X, out, lo, hi, 0, 1)
		for i := lo; i < hi; i++ {
			out[i] /= n
		}
	})
}

// Compile returns the forest's flat inference engine.
func (f *RandomForest) Compile() (*CompiledForest, error) {
	if !f.fitted || f.compiled == nil {
		return nil, ErrNotFitted
	}
	return f.compiled, nil
}

// compileForest concatenates fitted trees into a CompiledForest.
func compileForest(trees []*DecisionTree, workers int) (*CompiledForest, error) {
	c := &CompiledForest{Workers: workers}
	for _, t := range trees {
		flat, err := t.Compile()
		if err != nil {
			return nil, err
		}
		c.tab.appendTree(flat)
	}
	return c, nil
}

// CompiledGBR is a GradientBoosted model lowered into one contiguous
// node table (base + learning-rate-scaled stage sums).
type CompiledGBR struct {
	tab  nodeTable
	base float64
	lr   float64
	// Workers bounds PredictAll concurrency (0 = NumCPU); results are
	// identical for any value.
	Workers int
}

// NumTrees returns the number of boosting stages.
func (c *CompiledGBR) NumTrees() int { return len(c.tab.roots) }

// Predict accumulates the stages in fit order; it allocates nothing.
func (c *CompiledGBR) Predict(x []float64) float64 {
	return c.tab.accumulate(c.base, c.lr, x)
}

// PredictAll evaluates every row through the batch kernel, chunked
// across the worker pool.
func (c *CompiledGBR) PredictAll(X [][]float64) []float64 {
	out := make([]float64, len(X))
	c.predictAllInto(X, out, c.Workers)
	return out
}

func (c *CompiledGBR) predictAllInto(X [][]float64, out []float64, workers int) {
	parallelChunks(len(X), workers, func(lo, hi int) {
		c.tab.batchSum(X, out, lo, hi, c.base, c.lr)
	})
}

// Compile returns the model's flat inference engine.
func (g *GradientBoosted) Compile() (*CompiledGBR, error) {
	if !g.fitted || g.compiled == nil {
		return nil, ErrNotFitted
	}
	return g.compiled, nil
}

// compileGBR concatenates fitted stage trees into a CompiledGBR.
func compileGBR(base, lr float64, trees []*DecisionTree, workers int) (*CompiledGBR, error) {
	c := &CompiledGBR{base: base, lr: lr, Workers: workers}
	for _, t := range trees {
		flat, err := t.Compile()
		if err != nil {
			return nil, err
		}
		c.tab.appendTree(flat)
	}
	return c, nil
}
