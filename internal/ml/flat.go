package ml

// This file is the serialization boundary of the model zoo, and the
// kernel's interleaved NodeRec table IS the wire format. DumpFlat
// exposes a fitted ensemble's node table, tree index and metadata
// without copying the hot arrays; LoadFlat ingests them straight back
// into a servable model — no pointer tree, no re-compile, no refit.
// Runtime knobs that do not affect predictions (worker counts,
// observability registries) are not persisted and are re-attached at
// load time via LoadOptions. The binary artifact sections of
// internal/store persist exactly these slices (24-byte little-endian
// records), so restoring a model of any size is one contiguous read
// plus an O(n) structural validation pass over flat memory.
//
// Validation is strict and bounded: a hostile table is rejected by
// replaying the exact breadth-first allocation discipline appendTree
// uses (each internal node's left child must be the next unallocated
// slot, leaves must self-loop on a +Inf threshold), re-deriving every
// tree's height, and bounding depth, feature indices and float
// finiteness — so the branch-free walk kernels can never index out of
// range, loop forever, or compare NaNs. Every violation classifies as
// merr.ErrBadArtifact.

import (
	"encoding/binary"
	"math"
	"unsafe"

	"merchandiser/internal/merr"
	"merchandiser/internal/obs"
)

// NodeRecBytes is the wire size of one NodeRec: two float64s and two
// int32s, no padding.
const NodeRecBytes = 24

// maxTreeDepth bounds the per-tree height a flat table may declare.
// Real trees are depth <= ~10 (TreeConfig.MaxDepth); the bound keeps a
// hostile table from making every walk take millions of steps.
const maxTreeDepth = 512

// Compile-time guards: the serialization below assumes this exact
// record layout. If NodeRec ever grows or reorders, these fail to
// compile and the store's SlotVersion must be bumped.
var (
	_ = [1]struct{}{}[unsafe.Sizeof(NodeRec{})-NodeRecBytes]
	_ = [1]struct{}{}[unsafe.Offsetof(NodeRec{}.Thresh)-0]
	_ = [1]struct{}{}[unsafe.Offsetof(NodeRec{}.Pred)-8]
	_ = [1]struct{}{}[unsafe.Offsetof(NodeRec{}.Feature)-16]
	_ = [1]struct{}{}[unsafe.Offsetof(NodeRec{}.Left)-20]
)

// hostLE reports whether the host stores multi-byte values
// little-endian — the wire order. When true, NodeRec slices can be
// copied to and from their wire form with a single memmove; otherwise
// the portable per-field codec runs.
var hostLE = func() bool {
	x := uint16(0x0102)
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

// AppendNodeRecs appends the little-endian wire form of recs to dst.
// On little-endian hosts this is one bulk copy of the records' memory.
func AppendNodeRecs(dst []byte, recs []NodeRec) []byte {
	if len(recs) == 0 {
		return dst
	}
	if hostLE {
		src := unsafe.Slice((*byte)(unsafe.Pointer(&recs[0])), len(recs)*NodeRecBytes)
		return append(dst, src...)
	}
	var buf [NodeRecBytes]byte
	for i := range recs {
		putNodeRec(buf[:], &recs[i])
		dst = append(dst, buf[:]...)
	}
	return dst
}

// NodeRecsFromBytes decodes a wire-form record array into a fresh
// NodeRec slice. On little-endian hosts the payload lands in the
// kernel table with a single bulk copy. The only accepted length is an
// exact multiple of NodeRecBytes, and the allocation is proportional
// to len(data) — never to anything a corrupted header claims.
func NodeRecsFromBytes(data []byte) ([]NodeRec, error) {
	if len(data)%NodeRecBytes != 0 {
		return nil, badModel("node record payload of %d bytes is not a multiple of %d", len(data), NodeRecBytes)
	}
	n := len(data) / NodeRecBytes
	recs := make([]NodeRec, n)
	if n == 0 {
		return recs, nil
	}
	if hostLE {
		dst := unsafe.Slice((*byte)(unsafe.Pointer(&recs[0])), len(data))
		copy(dst, data)
		return recs, nil
	}
	for i := range recs {
		getNodeRec(data[i*NodeRecBytes:], &recs[i])
	}
	return recs, nil
}

func putNodeRec(b []byte, r *NodeRec) {
	binary.LittleEndian.PutUint64(b[0:], math.Float64bits(r.Thresh))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(r.Pred))
	binary.LittleEndian.PutUint32(b[16:], uint32(r.Feature))
	binary.LittleEndian.PutUint32(b[20:], uint32(r.Left))
}

func getNodeRec(b []byte, r *NodeRec) {
	r.Thresh = math.Float64frombits(binary.LittleEndian.Uint64(b[0:]))
	r.Pred = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	r.Feature = int32(binary.LittleEndian.Uint32(b[16:]))
	r.Left = int32(binary.LittleEndian.Uint32(b[20:]))
}

// GBRParams are the GradientBoosted hyperparameters that shape the
// fitted model (GBRConfig minus the runtime knobs Workers and Obs).
type GBRParams struct {
	NumStages      int     `json:"num_stages"`
	LearningRate   float64 `json:"learning_rate"`
	MaxDepth       int     `json:"max_depth"`
	MinSamplesLeaf int     `json:"min_samples_leaf,omitempty"`
	Subsample      float64 `json:"subsample"`
	Seed           int64   `json:"seed"`
}

// ForestParams are the RandomForest hyperparameters (ForestConfig minus
// Workers).
type ForestParams struct {
	NumTrees       int   `json:"num_trees"`
	MaxDepth       int   `json:"max_depth"`
	MinSamplesLeaf int   `json:"min_samples_leaf,omitempty"`
	MaxFeatures    int   `json:"max_features,omitempty"`
	Seed           int64 `json:"seed"`
}

// FlatMeta is the part of a flat model that is not the kernel table:
// the model kind, its hyperparameters, the GBR base prediction and the
// ensemble importance vector. It is O(features) — negligible next to
// the node records — and travels as a small canonical-JSON tail of the
// binary node section.
type FlatMeta struct {
	// Kind is the model's Name(): "GBR" or "RFR".
	Kind string `json:"kind"`
	// Base is the GBR base prediction (0 for forests).
	Base float64 `json:"base,omitempty"`
	// GBR / Forest carry the ensemble hyperparameters; exactly the one
	// matching Kind is set.
	GBR    *GBRParams    `json:"gbr,omitempty"`
	Forest *ForestParams `json:"forest,omitempty"`
	// Importances is the ensemble-level importance vector.
	Importances []float64 `json:"importances,omitempty"`
}

// FlatModel is a compiled ensemble in serialization form: the kernel's
// node table, the per-tree roots and heights, and the model metadata.
// DumpFlat shares the live model's slices (callers must not mutate
// them); LoadFlat takes ownership of the slices it is given.
type FlatModel struct {
	Nodes []NodeRec
	Roots []int32
	Depth []int32
	Meta  FlatMeta
}

// NumTrees returns the tree count of the flat table.
func (f *FlatModel) NumTrees() int { return len(f.Roots) }

// LoadOptions re-attaches the runtime knobs a flat model does not carry.
type LoadOptions struct {
	// Workers bounds PredictAll concurrency of the loaded model (0 uses
	// runtime.NumCPU()). Predictions are identical for any value.
	Workers int
	// Obs, when non-nil, receives the loaded model's predict counters and
	// timers — fit counters stay untouched, which is how tests prove the
	// restore path does zero training work.
	Obs *obs.Registry
}

// DumpFlat exposes a fitted ensemble's compiled table for
// serialization. The returned slices alias the model's own kernel
// table — no node is copied — so the caller must treat them as
// read-only. Only the ensembles persist: a lone tree, SVR, KNN and MLP
// are never the pipeline's selected model and are rejected. The
// metadata is rebuilt from the model's config, so dumping a flat-loaded
// model reproduces the form it was loaded from.
func DumpFlat(m Regressor) (*FlatModel, error) {
	var tab *nodeTable
	var meta FlatMeta
	switch v := m.(type) {
	case *GradientBoosted:
		if !v.fitted || v.compiled == nil {
			return nil, ErrNotFitted
		}
		tab = &v.compiled.tab
		c := v.Config
		meta = FlatMeta{
			Kind: v.Name(),
			Base: v.base,
			GBR: &GBRParams{
				NumStages:      c.NumStages,
				LearningRate:   c.LearningRate,
				MaxDepth:       c.MaxDepth,
				MinSamplesLeaf: c.MinSamplesLeaf,
				Subsample:      c.Subsample,
				Seed:           c.Seed,
			},
			Importances: v.Importances(),
		}
	case *RandomForest:
		if !v.fitted || v.compiled == nil {
			return nil, ErrNotFitted
		}
		tab = &v.compiled.tab
		c := v.Config
		meta = FlatMeta{
			Kind: v.Name(),
			Forest: &ForestParams{
				NumTrees:       c.NumTrees,
				MaxDepth:       c.MaxDepth,
				MinSamplesLeaf: c.MinSamplesLeaf,
				MaxFeatures:    c.MaxFeatures,
				Seed:           c.Seed,
			},
			Importances: v.Importances(),
		}
	default:
		return nil, badModel("model %s has no flat serialization", m.Name())
	}
	return &FlatModel{Nodes: tab.nodes, Roots: tab.roots, Depth: tab.depth, Meta: meta}, nil
}

// LoadFlat reconstructs a servable ensemble from its flat form without
// building pointer trees and without re-compiling: the given node
// table becomes the model's kernel table as-is, after a strict
// structural validation. The model predicts bit-for-bit what the dumped
// model did.
func LoadFlat(f *FlatModel, opt LoadOptions) (Regressor, error) {
	if f == nil {
		return nil, badModel("nil flat model")
	}
	if err := validateFlatMeta(&f.Meta); err != nil {
		return nil, err
	}
	if err := validateNodeTable(f.Nodes, f.Roots, f.Depth); err != nil {
		return nil, err
	}
	meta := f.Meta
	tab := nodeTable{nodes: f.Nodes, roots: f.Roots, depth: f.Depth}
	switch meta.Kind {
	case "GBR":
		p := meta.GBR
		g := NewGradientBoosted(GBRConfig{
			NumStages:      p.NumStages,
			LearningRate:   p.LearningRate,
			MaxDepth:       p.MaxDepth,
			MinSamplesLeaf: p.MinSamplesLeaf,
			Subsample:      p.Subsample,
			Seed:           p.Seed,
			Workers:        opt.Workers,
			Obs:            opt.Obs,
		})
		g.base = meta.Base
		g.importances = append([]float64(nil), meta.Importances...)
		g.fitted = true
		g.compiled = &CompiledGBR{tab: tab, base: meta.Base, lr: p.LearningRate, Workers: opt.Workers}
		return g, nil
	default: // "RFR", enforced by validateFlatMeta
		p := meta.Forest
		rf := NewRandomForest(ForestConfig{
			NumTrees:       p.NumTrees,
			MaxDepth:       p.MaxDepth,
			MinSamplesLeaf: p.MinSamplesLeaf,
			MaxFeatures:    p.MaxFeatures,
			Seed:           p.Seed,
			Workers:        opt.Workers,
		})
		rf.importances = append([]float64(nil), meta.Importances...)
		rf.fitted = true
		rf.compiled = &CompiledForest{tab: tab, Workers: opt.Workers}
		return rf, nil
	}
}

// validateFlatMeta checks the metadata's internal consistency.
func validateFlatMeta(m *FlatMeta) error {
	switch m.Kind {
	case "GBR":
		if m.GBR == nil || m.Forest != nil {
			return badModel("flat GBR metadata needs exactly the gbr params")
		}
		if !isFinite(m.GBR.LearningRate) || m.GBR.LearningRate <= 0 {
			return badModel("flat GBR learning rate %v out of range", m.GBR.LearningRate)
		}
		if !isFinite(m.Base) {
			return badModel("flat GBR base prediction is non-finite")
		}
	case "RFR":
		if m.Forest == nil || m.GBR != nil {
			return badModel("flat forest metadata needs exactly the forest params")
		}
		if m.Base != 0 {
			return badModel("flat forest carries a base prediction")
		}
	default:
		return badModel("flat model kind %q unknown", m.Kind)
	}
	for i, v := range m.Importances {
		if !isFinite(v) || v < 0 {
			return badModel("importance %d is %v, want finite non-negative", i, v)
		}
	}
	return nil
}

// validateNodeTable proves a flat table safe for the walk kernels by
// replaying appendTree's breadth-first allocation discipline over every
// tree range: the root is the range's first slot, each internal node's
// left child is the next unallocated slot (its right sibling follows
// immediately), leaves self-loop on a +Inf threshold, every slot is
// allocated exactly once, and the declared per-tree height matches the
// one re-derived from the structure. A table that passes can never
// index out of range or run a lane past its leaf.
func validateNodeTable(nodes []NodeRec, roots, depth []int32) error {
	n := int32(len(nodes))
	if len(roots) == 0 {
		return badModel("flat table has no trees")
	}
	if len(depth) != len(roots) {
		return badModel("flat table has %d depths for %d roots", len(depth), len(roots))
	}
	if roots[0] != 0 {
		return badModel("flat table's first root is %d, want 0", roots[0])
	}
	heights := make([]int32, 0, 64)
	for k := range roots {
		lo := roots[k]
		hi := n
		if k+1 < len(roots) {
			hi = roots[k+1]
		}
		if lo >= hi {
			return badModel("flat tree %d has an empty or inverted range [%d,%d)", k, lo, hi)
		}
		if depth[k] < 0 || depth[k] > maxTreeDepth {
			return badModel("flat tree %d declares height %d, limit %d", k, depth[k], maxTreeDepth)
		}
		// Breadth-first allocation replay.
		next := lo + 1
		for j := lo; j < hi; j++ {
			nd := nodes[j]
			if math.IsInf(nd.Thresh, 1) { // leaf
				if nd.Feature != 0 || nd.Left != j {
					return badModel("flat leaf %d does not self-loop", j)
				}
				if !isFinite(nd.Pred) {
					return badModel("flat leaf %d has non-finite prediction", j)
				}
				continue
			}
			if !isFinite(nd.Thresh) {
				return badModel("flat node %d has non-finite threshold", j)
			}
			if nd.Feature < 0 || nd.Feature > maxFeatureIndex {
				return badModel("flat node %d has feature index %d out of range", j, nd.Feature)
			}
			if nd.Pred != 0 {
				return badModel("flat internal node %d carries a leaf prediction", j)
			}
			if nd.Left != next || next+2 > hi {
				return badModel("flat node %d breaks the breadth-first child layout", j)
			}
			next += 2
		}
		if next != hi {
			return badModel("flat tree %d allocates %d of %d slots", k, next-lo, hi-lo)
		}
		// Height replay: children always follow parents in BFS order, so
		// one reverse scan derives every subtree height.
		heights = append(heights[:0], make([]int32, hi-lo)...)
		for j := hi - 1; j >= lo; j-- {
			nd := nodes[j]
			if math.IsInf(nd.Thresh, 1) {
				continue // leaf height 0, already zeroed
			}
			l, r := heights[nd.Left-lo], heights[nd.Left+1-lo]
			if r > l {
				l = r
			}
			heights[j-lo] = 1 + l
		}
		if heights[0] != depth[k] {
			return badModel("flat tree %d declares height %d, structure says %d", k, depth[k], heights[0])
		}
	}
	return nil
}

func badModel(format string, args ...any) error {
	return merr.Errorf(merr.ErrBadArtifact, "ml: "+format, args...)
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
