// Package trace is the dynamic-analysis fallback of Section 5.3: when
// application source is unavailable for Spindle's static analysis, the
// paper proposes binary instrumentation that intercepts memory allocation
// and records instruction traces, from which access patterns are
// recognized (citing QUAD- and METRIC-style trace analyzers).
//
// Recorder plays the role of the instrumentation layer — code under
// observation registers its allocations and reports element accesses —
// and Classify recognizes the paper's four patterns from each region's
// offset sequence. The apps' real kernels (SpGEMM's Gustavson loop, BFS
// relaxation) are traced in the tests and must classify identically to
// the static Table 1 results.
package trace

import (
	"fmt"
	"sort"

	"merchandiser/internal/access"
)

// Region is one intercepted allocation.
type Region struct {
	Name  string
	Bytes uint64
	// offsets is the recorded sequence of accessed byte offsets.
	offsets []uint64
	writes  int
}

// Recorder intercepts allocations and accesses (the DBI stand-in).
type Recorder struct {
	regions []*Region
	byName  map[string]*Region
	// Budget caps recorded events per region (instrumentation is
	// sampled in practice); 0 means unlimited.
	Budget int
}

// NewRecorder builds an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{byName: map[string]*Region{}}
}

// Alloc intercepts an allocation of size bytes.
func (r *Recorder) Alloc(name string, size uint64) (*Region, error) {
	if size == 0 {
		return nil, fmt.Errorf("trace: zero-size allocation %q", name)
	}
	if _, dup := r.byName[name]; dup {
		return nil, fmt.Errorf("trace: duplicate allocation %q", name)
	}
	reg := &Region{Name: name, Bytes: size}
	r.regions = append(r.regions, reg)
	r.byName[name] = reg
	return reg, nil
}

// Touch records an access to byte offset off of the region. write marks
// stores.
func (r *Recorder) Touch(reg *Region, off uint64, write bool) {
	if r.Budget > 0 && len(reg.offsets) >= r.Budget {
		return
	}
	reg.offsets = append(reg.offsets, off)
	if write {
		reg.writes++
	}
}

// Events returns the number of recorded accesses for a region.
func (reg *Region) Events() int { return len(reg.offsets) }

// WriteFraction returns the recorded store share.
func (reg *Region) WriteFraction() float64 {
	if len(reg.offsets) == 0 {
		return 0
	}
	return float64(reg.writes) / float64(len(reg.offsets))
}

// Classification is the result for one region.
type Classification struct {
	Region  string
	Pattern access.Pattern
	// Confidence is the fraction of the dominant delta behaviour in the
	// trace (1.0 = perfectly regular).
	Confidence float64
}

// Classify recognizes the access pattern of one region's trace.
//
// The recognizer mirrors what trace-driven tools do: it histograms the
// deltas between consecutive accesses. A single dominant positive delta is
// a stream (≤ one element) or a strided walk (larger); a small set of
// short-range deltas straddling a forward sweep is a stencil; everything
// else is random (which Section 4 also prescribes for unknown patterns).
func Classify(reg *Region, elemSize int) Classification {
	if elemSize <= 0 {
		elemSize = 8
	}
	out := Classification{Region: reg.Name}
	n := len(reg.offsets)
	if n < 3 {
		// Too little evidence: the paper's rule for unknown patterns is
		// to treat them as random and let α refinement sort it out.
		out.Pattern = access.Pattern{Kind: access.Random, ElemSize: elemSize, InputDependent: true}
		return out
	}

	deltas := map[int64]int{}
	for i := 1; i < n; i++ {
		d := int64(reg.offsets[i]) - int64(reg.offsets[i-1])
		deltas[d]++
	}
	type dc struct {
		d int64
		c int
	}
	ranked := make([]dc, 0, len(deltas))
	for d, c := range deltas {
		ranked = append(ranked, dc{d, c})
	}
	sort.Slice(ranked, func(a, b int) bool {
		if ranked[a].c != ranked[b].c {
			return ranked[a].c > ranked[b].c
		}
		return ranked[a].d < ranked[b].d
	})

	total := n - 1
	top := ranked[0]
	out.Confidence = float64(top.c) / float64(total)

	// Stencil: a handful of distinct short deltas (neighbour hops around a
	// forward sweep), both signs present, each carrying substantial mass.
	// A gather's small-jump tail has many distinct low-mass deltas and
	// must not match.
	if len(ranked) >= 2 {
		var shortMass, heavyShort, distinctShort int
		hasBack, hasFwd := false, false
		for _, rc := range ranked {
			if abs64(rc.d) <= int64(8*elemSize) {
				distinctShort++
				shortMass += rc.c
				if float64(rc.c)/float64(total) >= 0.15 {
					heavyShort++
					if rc.d < 0 {
						hasBack = true
					}
					if rc.d > 0 {
						hasFwd = true
					}
				}
			}
		}
		shortFrac := float64(shortMass) / float64(total)
		if hasBack && hasFwd && heavyShort >= 2 && distinctShort <= 12 &&
			shortFrac > 0.8 && out.Confidence < 0.9 {
			points := heavyShort + 1
			if points > 9 {
				points = 9
			}
			out.Pattern = access.Pattern{Kind: access.Stencil, ElemSize: elemSize, Points: points}
			out.Confidence = shortFrac
			return out
		}
	}

	// Gather detection: short unit-stride runs (scanning within a row or
	// record) interrupted by many distinct, bidirectional long jumps —
	// B in A[i] = B[C[i]] over CSR rows traces exactly like this. A true
	// stream has essentially no long jumps.
	if top.d > 0 && top.d <= int64(elemSize) {
		distinctJumps, jumpMass := 0, 0
		backJumps := false
		for _, rc := range ranked[1:] {
			if abs64(rc.d) > int64(16*elemSize) {
				distinctJumps++
				jumpMass += rc.c
				if rc.d < 0 {
					backJumps = true
				}
			}
		}
		if distinctJumps >= 8 && backJumps && float64(jumpMass)/float64(total) > 0.02 {
			out.Pattern = access.Pattern{Kind: access.Random, ElemSize: elemSize, InputDependent: true}
			out.Confidence = float64(jumpMass) / float64(total)
			return out
		}
	}

	switch {
	case out.Confidence >= 0.7 && top.d > 0 && top.d <= int64(elemSize):
		out.Pattern = access.Pattern{Kind: access.Stream, ElemSize: elemSize}
	case out.Confidence >= 0.7 && top.d > int64(elemSize):
		out.Pattern = access.Pattern{
			Kind: access.Strided, ElemSize: elemSize, StrideBytes: int(top.d),
		}
	default:
		out.Pattern = access.Pattern{Kind: access.Random, ElemSize: elemSize, InputDependent: true}
	}
	return out
}

// ClassifyAll classifies every recorded region.
func ClassifyAll(r *Recorder, elemSize int) []Classification {
	out := make([]Classification, 0, len(r.regions))
	for _, reg := range r.regions {
		out = append(out, Classify(reg, elemSize))
	}
	return out
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
