package hm

import (
	"fmt"
	"math"

	"merchandiser/internal/access"
	"merchandiser/internal/merr"
)

// Object is a data object registered with the memory system. Pages are
// placed individually, so an object can straddle tiers.
type Object struct {
	ID    int
	Name  string
	Owner string // owning task, "" if shared across tasks
	Bytes uint64

	// Loc holds the tier of each page.
	Loc []TierID

	// PageAccess accumulates per-page main-memory accesses over the whole
	// run; IntervalAccess accumulates since the last profiler reset.
	// The engine writes these; profilers read them (with their own
	// sampling error on top — see internal/profiler).
	PageAccess     []float64
	IntervalAccess []float64

	dramPages uint64 // cached count of pages currently in DRAM
}

// NumPages returns the number of pages the object spans.
func (o *Object) NumPages() int { return len(o.Loc) }

// DRAMPages returns how many of the object's pages are in DRAM.
func (o *Object) DRAMPages() uint64 { return o.dramPages }

// DRAMFraction returns the fraction of the object's pages in DRAM.
func (o *Object) DRAMFraction() float64 {
	if len(o.Loc) == 0 {
		return 0
	}
	return float64(o.dramPages) / float64(len(o.Loc))
}

// Memory is the two-tier main memory: an object registry, a page table,
// and occupancy accounting. It is not safe for concurrent use; the engine
// drives it from a single goroutine.
type Memory struct {
	Spec    SystemSpec
	objects []*Object
	used    [NumTiers]uint64 // pages in use per tier

	// MigratedPages counts pages moved since construction, per direction.
	MigratedToDRAM uint64
	MigratedToPM   uint64
	migrationBytes [NumTiers]float64 // pending migration traffic per tier

	// weights memoizes access.PageWeights for random patterns (see
	// pageWeights).
	weights map[weightKey][]float64

	// reuseDRAM counts freed DRAM pages available for allocator reuse:
	// real allocators (memkind, malloc arenas) hand freed virtual ranges
	// back, so a reallocated object inherits the physical placement of
	// what it replaced. Without this, per-iteration data (DMRG's PSI,
	// SpGEMM's C) could never retain fast-memory placement across
	// instances, which real systems do.
	reuseDRAM uint64
}

// NewMemory builds an empty memory system with the given spec.
func NewMemory(spec SystemSpec) *Memory {
	return &Memory{Spec: spec}
}

// Alloc registers a data object of the given size with all pages placed on
// tier t. It fails if the tier lacks capacity. Owner names the task the
// object belongs to ("" for shared objects).
func (m *Memory) Alloc(name, owner string, bytes uint64, t TierID) (*Object, error) {
	if bytes == 0 {
		return nil, fmt.Errorf("hm: object %q has zero size", name)
	}
	pages := (bytes + m.Spec.PageSize - 1) / m.Spec.PageSize
	if m.used[t]+pages > m.Spec.CapacityPages(t) {
		return nil, merr.Errorf(merr.ErrCapacity, "hm: tier %v full: need %d pages, %d of %d used",
			t, pages, m.used[t], m.Spec.CapacityPages(t))
	}
	o := &Object{
		ID:             len(m.objects),
		Name:           name,
		Owner:          owner,
		Bytes:          bytes,
		Loc:            make([]TierID, pages),
		PageAccess:     make([]float64, pages),
		IntervalAccess: make([]float64, pages),
	}
	for i := range o.Loc {
		o.Loc[i] = t
	}
	if t == DRAM {
		o.dramPages = pages
	} else if m.reuseDRAM > 0 {
		// Allocator reuse: freed DRAM-resident ranges are handed out
		// first, interleaved through the new object.
		take := m.reuseDRAM
		if take > pages {
			take = pages
		}
		if m.used[DRAM]+take <= m.Spec.CapacityPages(DRAM) {
			stride := float64(pages) / float64(take)
			for k := uint64(0); k < take; k++ {
				p := int(float64(k) * stride)
				if o.Loc[p] == DRAM {
					continue
				}
				o.Loc[p] = DRAM
				o.dramPages++
			}
			m.reuseDRAM -= o.dramPages
			m.used[DRAM] += o.dramPages
			pages -= o.dramPages
		}
	}
	m.used[t] += pages
	m.objects = append(m.objects, o)
	return o, nil
}

// weightKey is what access.PageWeights reads of a random pattern's
// access: the skew (as bits, so every key equals itself), the page count
// and the seed.
type weightKey struct {
	skew  uint64
	pages int
	seed  int64
}

// pageWeights returns access.PageWeights(p, pages, seed) for a random
// pattern p, computing it once per key for the Memory's life: every phase
// of every instance that touches an object of one size with one seed
// reads the same weights. Callers must not modify the slice.
func (m *Memory) pageWeights(p access.Pattern, pages int, seed int64) []float64 {
	k := weightKey{math.Float64bits(p.Skew), pages, seed}
	w, ok := m.weights[k]
	if !ok {
		if m.weights == nil {
			m.weights = map[weightKey][]float64{}
		}
		w = access.PageWeights(p, pages, seed)
		m.weights[k] = w
	}
	return w
}

// SharePageWeights makes m read and fill src's page-weight memo from
// now on: Memories built one after another for the same objects and
// seeds (the runs of one corpus region) then compute each Zipf weight
// set once between them. The same key yields the same slice, so no run
// sees other weights. Like the Memories themselves, the shared memo is
// for one goroutine at a time.
func (m *Memory) SharePageWeights(src *Memory) {
	if src.weights == nil {
		src.weights = map[weightKey][]float64{}
	}
	m.weights = src.weights
}

// Objects returns the registered objects in allocation order.
func (m *Memory) Objects() []*Object { return m.objects }

// UsedPages returns the number of pages occupying tier t.
func (m *Memory) UsedPages(t TierID) uint64 { return m.used[t] }

// FreePages returns the number of unused pages in tier t.
func (m *Memory) FreePages(t TierID) uint64 {
	return m.Spec.CapacityPages(t) - m.used[t]
}

// Migrate moves page pageIdx of object o to tier to. It is a no-op if the
// page is already there. The migration's traffic is charged to both tiers'
// bandwidth pools by the engine over subsequent steps.
func (m *Memory) Migrate(o *Object, pageIdx int, to TierID) error {
	if pageIdx < 0 || pageIdx >= len(o.Loc) {
		return fmt.Errorf("hm: page %d out of range for object %q (%d pages)", pageIdx, o.Name, len(o.Loc))
	}
	from := o.Loc[pageIdx]
	if from == to {
		return nil
	}
	if m.used[to] >= m.Spec.CapacityPages(to) {
		return merr.Errorf(merr.ErrCapacity, "hm: tier %v full, cannot migrate page of %q", to, o.Name)
	}
	o.Loc[pageIdx] = to
	m.used[from]--
	m.used[to]++
	if to == DRAM {
		o.dramPages++
		m.MigratedToDRAM++
	} else {
		o.dramPages--
		m.MigratedToPM++
	}
	pb := float64(m.Spec.PageSize)
	m.migrationBytes[from] += pb
	m.migrationBytes[to] += pb
	return nil
}

// Free releases every page of the object (e.g. a per-instance input array
// being replaced by the next instance's). The object stays in the registry
// with zero pages so historical profiles remain addressable.
func (m *Memory) Free(o *Object) error {
	if o == nil {
		return fmt.Errorf("hm: free of nil object")
	}
	for _, t := range o.Loc {
		if m.used[t] == 0 {
			return fmt.Errorf("hm: free of %q underflows tier %v", o.Name, t)
		}
		m.used[t]--
		if t == DRAM {
			m.reuseDRAM++
		}
	}
	o.Loc = nil
	o.PageAccess = nil
	o.IntervalAccess = nil
	o.dramPages = 0
	return nil
}

// ResetIntervalCounters zeroes every object's per-interval page access
// counters; profilers call it after consuming an interval.
func (m *Memory) ResetIntervalCounters() {
	for _, o := range m.objects {
		for i := range o.IntervalAccess {
			o.IntervalAccess[i] = 0
		}
	}
}

// CheckInvariants verifies page-table/occupancy consistency; tests and the
// engine's debug mode call it.
func (m *Memory) CheckInvariants() error {
	var used [NumTiers]uint64
	for _, o := range m.objects {
		var dram uint64
		for _, t := range o.Loc {
			if t != DRAM && t != PM {
				return fmt.Errorf("hm: object %q has page on unknown tier %d", o.Name, t)
			}
			used[t]++
			if t == DRAM {
				dram++
			}
		}
		if dram != o.dramPages {
			return fmt.Errorf("hm: object %q dram page cache %d != actual %d", o.Name, o.dramPages, dram)
		}
	}
	for t := TierID(0); t < NumTiers; t++ {
		if used[t] != m.used[t] {
			return fmt.Errorf("hm: tier %v usage %d != page table %d", t, m.used[t], used[t])
		}
		if used[t] > m.Spec.CapacityPages(t) {
			return fmt.Errorf("hm: tier %v over capacity: %d > %d", t, used[t], m.Spec.CapacityPages(t))
		}
	}
	return nil
}
