// Package access defines the memory-access-pattern vocabulary of the
// Merchandiser reproduction (Section 4 of the paper): the four pattern
// classes (stream, strided, stencil, random) with their sub-forms, the
// per-object access descriptors applications attach to their data objects,
// and the translation from program-level accesses to main-memory traffic
// and to per-page access distributions.
package access

import (
	"fmt"
	"math"
	"math/rand"

	"merchandiser/internal/cache"
)

// Kind is one of the paper's four object-level access-pattern classes.
type Kind int

const (
	// Stream steps through an array with a loop-induction index:
	// A[i] = B[i] + C[i]. Includes the delta, reduction and transpose
	// sub-forms.
	Stream Kind = iota
	// Strided is the generalized stream with a constant stride known from
	// application knowledge: A[i*stride] = B[i*stride].
	Strided
	// Stencil accesses an array sequentially with inter-iteration
	// dependencies: A[i] = A[i-1] + A[i+1] (5/7/9-point stencils).
	Stencil
	// Random covers indirect addressing: pointer chase, gather
	// (B in A[i]=B[C[i]]) and scatter (A in A[B[i]]=C[i]).
	Random
)

// String returns the paper's name for the pattern class.
func (k Kind) String() string {
	switch k {
	case Stream:
		return "Stream"
	case Strided:
		return "Strided"
	case Stencil:
		return "Stencil"
	case Random:
		return "Random"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Pattern describes how one data object is accessed inside one task.
type Pattern struct {
	Kind     Kind
	ElemSize int // bytes per element access (4 = int/float32, 8 = double)

	// StrideBytes is the byte distance between consecutive element
	// accesses (Strided only; Stream implies StrideBytes == ElemSize).
	StrideBytes int

	// Points is the stencil width (5-, 7-, 9-point). Stencil only.
	Points int

	// InputDependent marks stencils whose shape changes across inputs and
	// all random patterns; for these α starts at 1 and is refined online
	// (Section 4, "Runtime refinement of α").
	InputDependent bool

	// Skew is the Zipf-like skew of a Random pattern's page popularity:
	// 0 = uniform, larger values concentrate accesses on few hot pages.
	// Only meaningful for Random.
	Skew float64
}

// Validate reports whether the pattern is internally consistent.
func (p Pattern) Validate() error {
	if p.ElemSize <= 0 {
		return fmt.Errorf("access: pattern %v has non-positive element size %d", p.Kind, p.ElemSize)
	}
	switch p.Kind {
	case Strided:
		if p.StrideBytes <= 0 {
			return fmt.Errorf("access: strided pattern needs positive stride, got %d", p.StrideBytes)
		}
	case Stencil:
		if p.Points <= 0 {
			return fmt.Errorf("access: stencil pattern needs positive point count, got %d", p.Points)
		}
	case Random:
		if p.Skew < 0 {
			return fmt.Errorf("access: random pattern needs non-negative skew, got %v", p.Skew)
		}
	case Stream:
		// nothing extra
	default:
		return fmt.Errorf("access: unknown pattern kind %d", int(p.Kind))
	}
	return nil
}

// IsRegular reports whether the pattern is prefetch-friendly (stream,
// strided, input-independent stencil). The paper splits its applications
// into regular (WarpX, DMRG) and irregular (SpGEMM, BFS, NWChem-TC) along
// this axis (Figure 7).
func (p Pattern) IsRegular() bool {
	switch p.Kind {
	case Stream, Strided:
		return true
	case Stencil:
		return !p.InputDependent
	default:
		return false
	}
}

// MainMemoryAccesses converts programAccesses element-level accesses over
// an object of objectBytes into an expected number of main-memory (line)
// accesses, given the last-level cache capacity llcBytes. This is the
// "caching effect" of Section 4 that α quantifies.
func (p Pattern) MainMemoryAccesses(programAccesses float64, objectBytes, llcBytes float64) float64 {
	if programAccesses <= 0 {
		return 0
	}
	m := cache.MissModel{CacheBytes: llcBytes}
	var ratio float64
	switch p.Kind {
	case Stream:
		ratio = m.Stream(p.ElemSize)
		// A streamed object larger than the LLC cannot be reused across
		// sweeps, but within one sweep the traffic is one line fill per
		// line regardless of object size, so no extra correction.
	case Strided:
		ratio = m.Strided(p.ElemSize, p.StrideBytes)
	case Stencil:
		ratio = m.Stencil(p.ElemSize, p.Points)
	case Random:
		ratio = m.Random(objectBytes)
	}
	return programAccesses * ratio
}

// MLP returns the effective memory-level parallelism of the pattern: how
// many main-memory requests the core can keep in flight, combining
// out-of-order resources with prefetcher success. Regular patterns expose
// high MLP (prefetch trains); random patterns are latency-bound.
// These values parameterize the hm engine's throughput model.
func (p Pattern) MLP() float64 {
	switch p.Kind {
	case Stream:
		return 10
	case Strided:
		if p.StrideBytes >= 4*cache.LineSize {
			return 4 // strided prefetch loses effectiveness at large strides
		}
		return 8
	case Stencil:
		return 8
	default: // Random
		// Skewed random keeps slightly more in flight (hot lines hit).
		return 2 + math.Min(p.Skew, 1)
	}
}

// MLPBoost is how strongly the pattern's effective memory-level
// parallelism grows as its accesses move to DRAM: with low-latency
// responses the prefetcher and the out-of-order window keep more requests
// in flight, so regular patterns gain disproportionately. This is one of
// the two microarchitectural sources of the nonlinear T(r_dram) relation
// that Equation 2's correlation function f(·) must learn (the paper's
// "instruction pipelining is able to run faster" argument, Section 5).
func (p Pattern) MLPBoost() float64 {
	switch p.Kind {
	case Stream:
		return 0.6
	case Strided:
		return 0.5
	case Stencil:
		if p.InputDependent {
			return 0.3
		}
		return 0.5
	default: // Random: dependent loads barely pipeline better
		return 0.1
	}
}

// PrefetchMissRatio returns the fraction of prefetches that are useless
// for this pattern, feeding the PRF_Miss hardware event.
func (p Pattern) PrefetchMissRatio() float64 {
	switch p.Kind {
	case Stream:
		return 0.05
	case Strided:
		return 0.15
	case Stencil:
		if p.InputDependent {
			return 0.5
		}
		return 0.1
	default:
		return 0.9
	}
}

// PageWeights distributes one unit of access mass over numPages pages of
// an object according to the pattern. The result sums to 1 (for
// numPages > 0). Regular patterns spread uniformly; Random with Skew > 0
// concentrates mass on "hot" pages following a Zipf(s=Skew) law over a
// pseudo-random page permutation derived from seed, so that hot pages are
// scattered through the address space as in real workloads rather than
// clustered at the front.
func PageWeights(p Pattern, numPages int, seed int64) []float64 {
	if numPages <= 0 {
		return nil
	}
	w := make([]float64, numPages)
	if p.Kind != Random || p.Skew == 0 || numPages == 1 {
		u := 1 / float64(numPages)
		for i := range w {
			w[i] = u
		}
		return w
	}
	// Zipf weights over ranks 1..numPages, assigned to pages via a
	// deterministic shuffle.
	perm := rand.New(rand.NewSource(seed)).Perm(numPages)
	var sum float64
	for rank := 0; rank < numPages; rank++ {
		v := 1 / math.Pow(float64(rank+1), p.Skew)
		w[perm[rank]] = v
		sum += v
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}
