package ml

// This file is the inference engine: a fitted tree model holds its trees
// as one contiguous node table of interleaved records (split feature,
// threshold, int32 child index, leaf value), laid out breadth-first so a
// walk advances by integer arithmetic with no data-dependent branch,
// and the kernels run several independent walks in lockstep so their
// load chains overlap (see NodeRec). The batch kernel additionally
// iterates rows over one tree at a time in fixed row blocks so the
// tree's nodes stay cache-hot across the whole block.
//
// The table never changes a prediction: a walk performs the identical
// float64 comparisons in the identical order as the pointer walk over
// the treeNodes Fit grows, and the ensemble kernels accumulate
// stages/trees in fit order per row, so every output is bit-identical
// to the pointer path (enforced by the differential tests in
// compile_test.go). Fit lays its pointer trees out once with
// appendTree, and LoadFlat installs a persisted table as-is — a
// restored model predicts without ever rebuilding a pointer tree.

import (
	"math"
	"slices"
)

// maxFeatureIndex bounds split feature indices so hostile tables cannot
// make a walk index a huge feature vector (real models have single-digit
// feature counts).
const maxFeatureIndex = 1 << 20

// batchBlock is the batch kernel's row-block size: small enough that a
// block of row accumulators stays resident in L1, large enough to
// amortize re-walking the tree list per block.
const batchBlock = 256

// NodeRec is one node of the kernel's table. The walk loop touches
// every field of exactly one node per step, so the record interleaves
// them into 24 bytes: one bounds check and at most one cache-line fill
// per step. The table is laid out breadth-first with sibling nodes
// adjacent, so there is no right-child pointer: the right child lives
// at Left+1, and the walk advances with pure integer arithmetic (Left
// plus a materialized compare bit) instead of a data-dependent branch
// or conditional move. Leaves carry a +Inf threshold and point Left at
// themselves, so a walk that has reached its leaf parks there under
// further steps.
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
// k's height — the batch kernel walks every row exactly depth[k] steps
// (parked lanes self-loop), which lets it run several rows in lockstep
// with no per-step termination branch.
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
