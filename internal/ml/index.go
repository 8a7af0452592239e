package ml

// This file is the split index: a fitted tree ensemble's internal nodes
// listed by feature and threshold, in the style of QuickScorer
// (Lucchese et al., SIGIR 2015). It serves callers that evaluate one
// feature vector at many values of one feature — the planners vary
// only r_dram within a task — by scoring feature-first instead of
// tree-first: the fixed features are bound once, and each evaluation
// then applies only the varying feature's splits.
//
// Each tree's leaves are numbered left to right, and a tree with L
// leaves owns ⌈L/64⌉ words of a bit state, one bit per leaf. A node
// whose test x[f] <= t fails clears the bits of its left subtree's
// leaves; once every false node has cleared its bits, the tree's exit
// leaf is its lowest set bit. That is exactly the leaf the walk
// reaches:
//
//   - every leaf left of the walk's leaf lies in the left subtree of the
//     path node where their paths part, and the walk went right there,
//     so that node's test failed and the leaf's bit is cleared;
//   - the walk's own leaf lies in the left subtree only of path nodes
//     the walk took left, whose tests held, so nothing clears its bit;
//   - a node fails exactly when x[f] > t. Within one feature the nodes
//     are sorted by threshold, so the failing ones are the prefix that
//     sort.SearchFloat64s(thresholds, x[f]) cuts off: x == t goes left
//     on both paths, and NaN and +Inf search past every threshold,
//     where the walk's x <= t also fails.
//
// The exit leaves are then added in fit order with the expression the
// walk's accumulation uses, out += scale*leaf, so the sum is
// bit-identical to Predict. (On arm64 Go fuses that expression into a
// fused multiply-add; both paths must keep the same form to fuse alike.)

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"

	"merchandiser/internal/obs"
)

// SplitIndex is a fitted tree ensemble's feature-ordered split index.
// It is built once per model, read-only afterwards, and safe for
// concurrent use; the bit states it works on belong to the caller.
type SplitIndex struct {
	// thresh[f] holds feature f's distinct split thresholds, ascending.
	thresh [][]float64
	// cut[f][k] ends the run of feature f's entries whose threshold lies
	// below thresh[f][k] (k = len(thresh[f]) ends all of them); the run
	// starts at cut[f][0]. Entries are sorted by (feature, threshold).
	// Both have one row per feature up to the largest split feature.
	cut [][]int32
	// Entry e clears the bits ^masks[e] of state word words[e]: its
	// node's left-subtree leaves within that word. A node whose left
	// subtree spans several words has one entry per word.
	masks []uint64
	words []int32
	// Tree t owns state words [treeWords[t], treeWords[t+1]); bit b of
	// word w is leaf leafBase[w]+b of leaves.
	treeWords []int32
	leafBase  []int32
	leaves    []float64
	// oneWord: every tree owns exactly one word (at most 64 leaves).
	oneWord bool
	// The ensemble's accumulation: init + Σ scale·leaf, divided by the
	// tree count for a forest.
	init, scale float64
	mean        bool
	// predictions is the GBR's prediction counter (nil for forests): an
	// evaluation here counts as one Predict.
	predictions *obs.Counter
}

// NewSplitIndex builds the split index of a fitted GBR or random
// forest from its node table. ok is false for every other model (SVR,
// KNN, the MLP, a lone tree) and for unfitted ensembles.
func NewSplitIndex(m Regressor) (ix *SplitIndex, ok bool) {
	switch v := m.(type) {
	case *GradientBoosted:
		if !v.fitted {
			return nil, false
		}
		ix = newSplitIndex(&v.tab)
		ix.init, ix.scale = v.base, v.Config.LearningRate
		ix.predictions = v.predictions
	case *RandomForest:
		if !v.fitted {
			return nil, false
		}
		ix = newSplitIndex(&v.tab)
		ix.scale, ix.mean = 1, true
	default:
		return nil, false
	}
	return ix, true
}

// indexEntry is one (node, state word) pair while the index is built.
type indexEntry struct {
	thresh  float64
	feature int32
	word    int32
	mask    uint64
}

func newSplitIndex(nt *nodeTable) *SplitIndex {
	ix := &SplitIndex{treeWords: make([]int32, 0, len(nt.roots)+1)}
	var ents []indexEntry
	nfeat := 0
	for _, root := range nt.roots {
		base := len(ix.leaves)
		w0 := int32(len(ix.leafBase))
		ix.treeWords = append(ix.treeWords, w0)
		// number visits the subtree at i in order and returns its leaves'
		// tree-local numbers [lo, hi).
		var number func(i int32) (lo, hi int)
		number = func(i int32) (lo, hi int) {
			nd := nt.nodes[i]
			if math.IsInf(nd.Thresh, 1) {
				ix.leaves = append(ix.leaves, nd.Pred)
				lo = len(ix.leaves) - 1 - base
				return lo, lo + 1
			}
			lo, mid := number(nd.Left)
			_, hi = number(nd.Left + 1)
			for w := lo / 64; w <= (mid-1)/64; w++ {
				a, b := max(lo, 64*w)-64*w, min(mid, 64*w+64)-64*w
				left := ^uint64(0) >> (64 - (b - a)) << a
				ents = append(ents, indexEntry{nd.Thresh, nd.Feature, w0 + int32(w), ^left})
			}
			nfeat = max(nfeat, int(nd.Feature)+1)
			return lo, hi
		}
		_, n := number(root)
		for w := 0; w < (n+63)/64; w++ {
			ix.leafBase = append(ix.leafBase, int32(base+64*w))
		}
	}
	ix.treeWords = append(ix.treeWords, int32(len(ix.leafBase)))
	ix.oneWord = len(ix.leafBase) == len(nt.roots)

	slices.SortFunc(ents, func(a, b indexEntry) int {
		if c := cmp.Compare(a.feature, b.feature); c != 0 {
			return c
		}
		return cmp.Compare(a.thresh, b.thresh)
	})
	// One backing array each for the thresholds and the cuts, sized
	// exactly: a feature's rows are windows of them.
	distinct := 0
	for e := range ents {
		if e == 0 || ents[e].feature != ents[e-1].feature || ents[e].thresh != ents[e-1].thresh {
			distinct++
		}
	}
	allThresh := make([]float64, 0, distinct)
	allCut := make([]int32, 0, distinct+nfeat)
	ix.masks = make([]uint64, len(ents))
	ix.words = make([]int32, len(ents))
	ix.thresh = make([][]float64, nfeat)
	ix.cut = make([][]int32, nfeat)
	e := 0
	for f := range nfeat {
		t0, c0 := len(allThresh), len(allCut)
		for ; e < len(ents) && int(ents[e].feature) == f; e++ {
			if t := ents[e].thresh; len(allThresh) == t0 || allThresh[len(allThresh)-1] != t {
				// The entries below threshold t end where its own begin.
				allCut = append(allCut, int32(e))
				allThresh = append(allThresh, t)
			}
			ix.masks[e], ix.words[e] = ents[e].mask, ents[e].word
		}
		// A feature without splits has only this cut: interval 0 clears
		// nothing.
		allCut = append(allCut, int32(e))
		ix.thresh[f] = allThresh[t0:len(allThresh):len(allThresh)]
		ix.cut[f] = allCut[c0:len(allCut):len(allCut)]
	}
	return ix
}

// Thresholds returns the sorted, distinct thresholds at which the
// ensemble splits feature f (none when it never does). Every split tests
// x[f] <= t, so two vectors that differ only in x[f], with both values
// at the same sort.SearchFloat64s index in this slice, take the same
// branch at every node and get bit-identical predictions. A value equal
// to a threshold goes left, which is the interval SearchFloat64s returns
// for it. The slice is the index's own and must not be modified.
func (ix *SplitIndex) Thresholds(f int) []float64 {
	if f >= len(ix.thresh) {
		return nil
	}
	return ix.thresh[f]
}

// Words is the length of the bit state Bind fills and Predict advances.
func (ix *SplitIndex) Words() int { return len(ix.leafBase) }

// Bind fills state (Words() long) with x's outcome at every split of
// every feature except skip: all bits set, then the bits of each failed
// node's left subtree cleared. The state is then at interval 0 of
// feature skip: no split on it applied yet.
func (ix *SplitIndex) Bind(state []uint64, x []float64, skip int) {
	state = state[:len(ix.leafBase)]
	for w := range state {
		state[w] = ^uint64(0)
	}
	for f, ts := range ix.thresh {
		if f != skip {
			ix.clear(state, f, 0, sort.SearchFloat64s(ts, x[f]))
		}
	}
}

// clear applies the splits of feature f that fail for a value in
// interval k of Thresholds(f) but not for one in interval from <= k:
// the entries whose thresholds are thresh[f][from:k].
func (ix *SplitIndex) clear(state []uint64, f, from, k int) {
	c := ix.cut[f]
	words, masks := ix.words[c[from]:c[k]], ix.masks[c[from]:c[k]]
	for e, w := range words {
		state[w] &= masks[e]
	}
}

// Predict moves state to interval k of Thresholds(f) and returns the
// prediction there. state must hold what Bind made of some vector x with
// skip = f, moved by earlier calls to interval from (0 right after
// Bind), and k must be at least from: splits are applied, never undone,
// so moving down means starting again from a copy of the bound state.
// The result is bit-identical to Predict on x with x[f] set to any v
// with sort.SearchFloat64s(Thresholds(f), v) == k. It allocates nothing.
func (ix *SplitIndex) Predict(state []uint64, f, from, k int) float64 {
	ix.predictions.Inc()
	st := state[:len(ix.leafBase)]
	if f < len(ix.cut) {
		ix.clear(st, f, from, k)
	}
	out, scale := ix.init, ix.scale
	leafBase, leaves := ix.leafBase, ix.leaves
	if ix.oneWord {
		// Word t is tree t's.
		for w, s := range st {
			out += scale * leaves[leafBase[w]+int32(bits.TrailingZeros64(s))]
		}
	} else {
		tw := ix.treeWords
		for t := 0; t+1 < len(tw); t++ {
			w := tw[t]
			for st[w] == 0 {
				w++
			}
			out += scale * leaves[leafBase[w]+int32(bits.TrailingZeros64(st[w]))]
		}
	}
	if ix.mean {
		out /= float64(len(ix.treeWords) - 1)
	}
	return out
}
