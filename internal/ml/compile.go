package ml

// This file is the inference engine: a fitted tree model holds its trees
// as one contiguous node table of interleaved records (split feature,
// threshold, int32 child index, leaf value), laid out breadth-first so a
// walk advances by integer arithmetic with no data-dependent branch
// (see NodeRec). A full feature vector is scored by one walk per tree,
// added in fit order; the split index (index.go) is the only other
// scorer, for one vector at many values of one feature.
//
// The table never changes a prediction: a walk performs the identical
// float64 comparisons in the identical order as the pointer walk over
// the treeNodes Fit grows and ends on the same leaf whatever the vector
// holds, NaN included, and accumulate adds the trees in fit order, so
// every output is bit-identical to the pointer path (enforced by the
// differential tests in compile_test.go). Fit lays its pointer trees
// out once with appendTree, and LoadFlat installs a persisted table
// as-is — a restored model predicts without ever rebuilding a pointer
// tree.

import (
	"math"
	"slices"
)

// maxFeatureIndex bounds split feature indices so hostile tables cannot
// make a walk index a huge feature vector (real models have single-digit
// feature counts).
const maxFeatureIndex = 1 << 20

// NodeRec is one node of the kernel's table. The walk loop touches
// every field of exactly one node per step, so the record interleaves
// them into 24 bytes: one bounds check and at most one cache-line fill
// per step. The table is laid out breadth-first with sibling nodes
// adjacent, so there is no right-child pointer: the right child lives
// at Left+1, and the walk advances with pure integer arithmetic (Left
// plus a materialized compare bit) instead of a data-dependent branch
// or conditional move. Leaves carry a +Inf threshold, by which the
// validator and the split index know them, and point Left at
// themselves, by which the walk knows them: a walk that has reached its
// leaf stays there under further steps.
//
// NodeRec is also the serialization ABI of the engine: the binary
// artifact format of internal/store persists exactly these records, 24
// bytes each, little-endian, in table order (see flat.go), so a
// restored model's kernel table is a single contiguous read of the
// section payload.
type NodeRec struct {
	Thresh  float64 // split threshold; +Inf marks a leaf
	Pred    float64 // leaf prediction (0 on internal nodes)
	Feature int32   // split feature; 0 on leaves (a safe x index)
	Left    int32   // left child; right child is Left+1; leaves: self
}

// nodeTable is a model's trees concatenated into one contiguous node
// table; roots[k] is tree k's root index and child indices are
// absolute, so a whole forest walks a single slice. depth[k] is tree
// k's height — every walk of tree k takes exactly depth[k] steps (one
// that reaches its leaf early stays on it), so the loop has no per-step
// termination branch.
type nodeTable struct {
	nodes []NodeRec
	roots []int32
	depth []int32
}

// appendTree lays one fitted pointer tree into the table breadth-first,
// placing each internal node's children in adjacent slots with absolute
// indices.
func (nt *nodeTable) appendTree(root *treeNode) {
	off := int32(len(nt.nodes))
	nt.roots = append(nt.roots, off)
	nt.depth = append(nt.depth, treeHeight(root))
	// order[j] is the node of slot off+j; children are enqueued in pairs,
	// which is what makes right = left+1 hold.
	order := []*treeNode{root}
	for j := 0; j < len(order); j++ {
		if n := order[j]; !n.leaf {
			order = append(order, n.left, n.right)
		}
	}
	// Grow once: a fitted tree keeps its table for life.
	nt.nodes = slices.Grow(nt.nodes, len(order))
	inf := math.Inf(1)
	left := off + 1 // the next internal node's left child
	for j, n := range order {
		if n.leaf {
			nt.nodes = append(nt.nodes, NodeRec{Thresh: inf, Pred: n.value, Left: off + int32(j)})
			continue
		}
		nt.nodes = append(nt.nodes, NodeRec{Thresh: n.threshold, Feature: int32(n.feature), Left: left})
		left += 2
	}
}

// treeHeight is the longest root-to-leaf edge count of the subtree at n.
func treeHeight(n *treeNode) int32 {
	if n.leaf {
		return 0
	}
	return 1 + max(treeHeight(n.left), treeHeight(n.right))
}

// ensembleTable lays fitted trees out, in fit order, as one table.
func ensembleTable(trees []*DecisionTree) nodeTable {
	var nt nodeTable
	for _, t := range trees {
		nt.appendTree(t.root)
	}
	return nt
}

// walk evaluates the tree rooted at root in exactly d steps (the tree's
// height). It performs the identical split comparisons, in the
// identical order, as the pointer walk, so the returned leaf value is
// bit-identical. The child select is integer arithmetic on a
// materialized compare bit, so a split outcome — a coin flip the branch
// predictor cannot learn — never becomes a branch, and the loop bound
// is fixed. A walk that reaches its leaf before step d stays there
// because the guard sees a leaf's Left is its own index, whatever x
// holds (a NaN fails even the leaf's +Inf test). The guard must stay
// an if of its own: written into the split test as
// `x[nd.Feature] <= nd.Thresh || nd.Left == i`, the short-circuit
// becomes a branch on the split outcome, and a 150-stage depth-4
// prediction took 5.1–5.5 µs against 2.0–2.2 µs for this form
// (BenchmarkPredictCompiled/batch on a 2-vCPU Xeon VM).
func (nt *nodeTable) walk(root, d int32, x []float64) float64 {
	nodes := nt.nodes
	i := root
	for s := int32(0); s < d; s++ {
		nd := nodes[i]
		b := int32(1)
		if x[nd.Feature] <= nd.Thresh {
			b = 0
		}
		if nd.Left == i { // a leaf's Left is itself
			b = 0
		}
		i = nd.Left + b
	}
	return nodes[i].Pred
}

// accumulate returns init + Σ_t scale·tree_t(x), one walk per tree, in
// fit order. It is the only way the table scores a full feature vector:
// Predict and PredictAll both call it. The sum keeps the form
// out += scale * leaf that SplitIndex.Predict uses: on arm64 Go fuses
// it into a fused multiply-add, and both paths must fuse alike.
func (nt *nodeTable) accumulate(init, scale float64, x []float64) float64 {
	out := init
	for k, root := range nt.roots {
		out += scale * nt.walk(root, nt.depth[k], x)
	}
	return out
}
