// Package profiler implements the two page-hotness profiling mechanisms
// the paper builds on (Sections 2 and 4):
//
//   - AccessBitSampler is the MemoryOptimizer-style profiler used on PM:
//     it samples a bounded number of page-access observations per interval
//     (by scanning/resetting PTE accessed bits on a sampled page set), so
//     its per-page hotness estimates are noisy and — crucially for the
//     paper's argument — observations concentrate on whichever task
//     generates the most accesses. That is the sampling bias that makes
//     application-agnostic PGO migrate too many pages of one task.
//
//   - Thermostat is the DRAM-side profiler (Agarwal & Wenisch, ASPLOS'17):
//     it profiles one small (4 KB) page out of each 2 MB region and scales
//     the result to the whole region. Accurate and cheap at tens of GB,
//     too slow for TB-scale PM — hence the split.
//
// Both consume the simulator's per-page interval access counters
// (hm.Object.IntervalAccess), which play the role of the hardware
// accessed bits.
package profiler

import (
	"math"
	"math/rand"

	"merchandiser/internal/hm"
)

// PageRef identifies one page of one object.
type PageRef struct {
	Obj  *hm.Object
	Page int
}

// PageEstimate is a profiled hotness estimate for one page.
type PageEstimate struct {
	PageRef
	// Accesses is the estimated number of accesses to the page during the
	// last profiling interval.
	Accesses float64
}

// AccessBitSampler emulates the MemoryOptimizer profiling method: per
// interval it observes at most Events access events, drawn from the true
// per-page access distribution on the profiled tier.
type AccessBitSampler struct {
	// Events bounds the profiling work per interval (the paper's
	// "constrains the number of memory pages for profiling").
	Events int
	rng    *rand.Rand
}

// NewAccessBitSampler builds a sampler observing at most events
// observations per interval.
func NewAccessBitSampler(events int, seed int64) *AccessBitSampler {
	if events < 1 {
		events = 1
	}
	return &AccessBitSampler{Events: events, rng: rand.New(rand.NewSource(seed))}
}

// SampleTier profiles all pages currently on tier and returns per-page
// hotness estimates for the pages that received at least one observation,
// in object and page order. The estimate is the observation count scaled
// back to an access count, so it is unbiased but noisy, and the number of
// observations a task's pages receive is proportional to the task's share
// of tier traffic — the load-imbalance mechanism of Section 1.
func (s *AccessBitSampler) SampleTier(mem *hm.Memory, tier hm.TierID) []PageEstimate {
	var total float64
	for _, o := range mem.Objects() {
		for p, loc := range o.Loc {
			if loc == tier {
				total += o.IntervalAccess[p]
			}
		}
	}
	if total <= 0 {
		return nil
	}
	scale := total / float64(s.Events)
	var out []PageEstimate
	for _, o := range mem.Objects() {
		for p, loc := range o.Loc {
			if loc != tier {
				continue
			}
			a := o.IntervalAccess[p]
			if a <= 0 {
				continue
			}
			obs := s.poisson(a / scale)
			if obs == 0 {
				continue
			}
			out = append(out, PageEstimate{
				PageRef:  PageRef{Obj: o, Page: p},
				Accesses: float64(obs) * scale,
			})
		}
	}
	return out
}

func (s *AccessBitSampler) poisson(lambda float64) int64 {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		n := lambda + math.Sqrt(lambda)*s.rng.NormFloat64()
		if n < 0 {
			return 0
		}
		return int64(n + 0.5)
	}
	l := math.Exp(-lambda)
	var k int64
	p := 1.0
	for {
		p *= s.rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Thermostat emulates the Thermostat DRAM profiler: it samples one page
// per region of RegionPages pages and attributes the sampled page's access
// count to every page of the region.
type Thermostat struct {
	// RegionPages is the region size in pages (2 MB / page size on the
	// paper's platform).
	RegionPages int
	rng         *rand.Rand
}

// NewThermostat builds a Thermostat profiler; regionPages must be >= 1.
func NewThermostat(regionPages int, seed int64) *Thermostat {
	if regionPages < 1 {
		regionPages = 1
	}
	return &Thermostat{RegionPages: regionPages, rng: rand.New(rand.NewSource(seed))}
}

// EstimateTier profiles tier (DRAM in the paper) and returns a hotness
// estimate for every resident page, in object and page order. Its only
// allocation is the result, sized for every page on the tier.
func (t *Thermostat) EstimateTier(mem *hm.Memory, tier hm.TierID) []PageEstimate {
	out := make([]PageEstimate, 0, mem.UsedPages(tier))
	for _, o := range mem.Objects() {
		n := o.NumPages()
		for start := 0; start < n; start += t.RegionPages {
			end := min(start+t.RegionPages, n)
			// The region's pages that live on the profiled tier go out
			// first; then one of them, drawn at random, is probed and its
			// count stands for all of them.
			lo := len(out)
			for p := start; p < end; p++ {
				if o.Loc[p] == tier {
					out = append(out, PageEstimate{PageRef: PageRef{Obj: o, Page: p}})
				}
			}
			if len(out) == lo {
				continue
			}
			region := out[lo:]
			est := o.IntervalAccess[region[t.rng.Intn(len(region))].Page]
			for i := range region {
				region[i].Accesses = est
			}
		}
	}
	return out
}
