// Package cache models the on-chip cache hierarchy that stands between a
// task's program-level loads/stores and main memory in the Merchandiser
// reproduction.
//
// Two levels of fidelity are provided:
//
//   - SetAssociative is an exact, trace-driven set-associative cache with
//     LRU replacement and an optional next-line/stride prefetcher. It is
//     used by the offline α calibration (Section 4: ratio of program-level
//     accesses to main-memory accesses for a pattern) and by tests.
//   - MissModel is a closed-form approximation of the steady-state miss
//     ratio of the four access patterns, used by the time-stepped
//     heterogeneous-memory engine where simulating every address would be
//     prohibitively slow at realistic working-set sizes.
//
// The package also contains DirectMappedPageCache, the page-granular
// direct-mapped write-back DRAM cache that emulates Optane Memory Mode
// (the paper's hardware baseline).
package cache

import (
	"fmt"
	"math"
)

// LineSize is the cache line size in bytes, fixed at 64 as on the paper's
// Cascade Lake platform.
const LineSize = 64

// Config describes a set-associative cache.
type Config struct {
	SizeBytes int // total capacity
	Ways      int // associativity
	// PrefetchDegree is the number of next lines fetched on a detected
	// sequential/strided run; 0 disables prefetching.
	PrefetchDegree int
}

// Stats accumulates cache events for one simulation.
type Stats struct {
	Accesses       uint64 // program-level line accesses
	Hits           uint64
	Misses         uint64 // demand misses (reach the next level)
	PrefetchIssued uint64
	PrefetchHits   uint64 // demand accesses served by a prefetched line
	Evictions      uint64
	Writebacks     uint64 // dirty evictions
}

// MissRatio returns demand misses per demand access.
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// PrefetchAccuracy returns the fraction of issued prefetches that were hit
// by a later demand access. This feeds the PRF_Miss hardware event
// (Section 5.1) as 1 − accuracy.
func (s Stats) PrefetchAccuracy() float64 {
	if s.PrefetchIssued == 0 {
		return 0
	}
	return float64(s.PrefetchHits) / float64(s.PrefetchIssued)
}

type line struct {
	tag        uint64
	valid      bool
	dirty      bool
	prefetched bool // brought in by the prefetcher, not yet demand-hit
	lru        uint64
}

// SetAssociative is an exact set-associative cache with LRU replacement.
// It is not safe for concurrent use.
type SetAssociative struct {
	cfg     Config
	sets    [][]line
	numSets int
	tick    uint64
	stats   Stats

	// simple stream detector for the prefetcher
	lastLine  uint64
	lastDelta int64
	runLen    int
}

// NewSetAssociative builds a cache from cfg. SizeBytes must be a positive
// multiple of Ways*LineSize and the resulting set count must be a power of
// two (hardware-realistic and makes indexing cheap).
func NewSetAssociative(cfg Config) (*SetAssociative, error) {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache: invalid config %+v", cfg)
	}
	if cfg.SizeBytes%(cfg.Ways*LineSize) != 0 {
		return nil, fmt.Errorf("cache: size %d not divisible by ways*line (%d)", cfg.SizeBytes, cfg.Ways*LineSize)
	}
	numSets := cfg.SizeBytes / (cfg.Ways * LineSize)
	if numSets&(numSets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d is not a power of two", numSets)
	}
	sets := make([][]line, numSets)
	backing := make([]line, numSets*cfg.Ways)
	for i := range sets {
		sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	return &SetAssociative{cfg: cfg, sets: sets, numSets: numSets}, nil
}

// Access performs a demand access to byte address addr. write marks the
// line dirty. It returns true on a hit. On a miss the line is filled
// (allocate-on-write) and the LRU way is evicted.
func (c *SetAssociative) Access(addr uint64, write bool) bool {
	lineAddr := addr / LineSize
	hit := c.demand(lineAddr, write)
	c.maybePrefetch(lineAddr)
	return hit
}

func (c *SetAssociative) demand(lineAddr uint64, write bool) bool {
	c.tick++
	c.stats.Accesses++
	set := c.sets[lineAddr%uint64(c.numSets)]
	tag := lineAddr / uint64(c.numSets)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			if set[i].prefetched {
				c.stats.PrefetchHits++
				set[i].prefetched = false
			}
			set[i].lru = c.tick
			if write {
				set[i].dirty = true
			}
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	c.fill(set, tag, write, false)
	return false
}

// fill installs tag into set, evicting the LRU way if necessary.
func (c *SetAssociative) fill(set []line, tag uint64, dirty, prefetched bool) {
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			goto install
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	c.stats.Evictions++
	if set[victim].dirty {
		c.stats.Writebacks++
	}
install:
	set[victim] = line{tag: tag, valid: true, dirty: dirty, prefetched: prefetched, lru: c.tick}
}

// maybePrefetch runs a simple stride detector: after two consecutive
// accesses with the same line delta it prefetches PrefetchDegree lines
// ahead along that stride.
func (c *SetAssociative) maybePrefetch(lineAddr uint64) {
	if c.cfg.PrefetchDegree <= 0 {
		return
	}
	delta := int64(lineAddr) - int64(c.lastLine)
	if delta == 0 {
		// Same line as before (sub-line stride): not evidence for or
		// against a stream, keep the detector state.
		return
	}
	if delta == c.lastDelta {
		c.runLen++
	} else {
		c.runLen = 0
	}
	c.lastDelta = delta
	c.lastLine = lineAddr
	if c.runLen < 2 {
		return
	}
	next := int64(lineAddr)
	for i := 0; i < c.cfg.PrefetchDegree; i++ {
		next += delta
		if next < 0 {
			return
		}
		c.prefetchLine(uint64(next))
	}
}

func (c *SetAssociative) prefetchLine(lineAddr uint64) {
	set := c.sets[lineAddr%uint64(c.numSets)]
	tag := lineAddr / uint64(c.numSets)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return // already resident
		}
	}
	c.tick++
	c.stats.PrefetchIssued++
	c.fill(set, tag, false, true)
}

// Contains reports whether the line holding addr is resident. Intended for
// tests and invariant checks.
func (c *SetAssociative) Contains(addr uint64) bool {
	lineAddr := addr / LineSize
	set := c.sets[lineAddr%uint64(c.numSets)]
	tag := lineAddr / uint64(c.numSets)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Stats returns a copy of the accumulated statistics.
func (c *SetAssociative) Stats() Stats { return c.stats }

// Reset clears contents and statistics but keeps the configuration.
func (c *SetAssociative) Reset() {
	for _, set := range c.sets {
		for i := range set {
			set[i] = line{}
		}
	}
	c.tick = 0
	c.stats = Stats{}
	c.lastLine, c.lastDelta, c.runLen = 0, 0, 0
}

// MissModel is the closed-form miss-ratio approximation used by the
// heterogeneous-memory engine for working sets too large to trace.
// All methods return the fraction of *line-granular* accesses that reach
// main memory in steady state.
type MissModel struct {
	// CacheBytes is the capacity of the last cache level before main
	// memory (LLC).
	CacheBytes float64
}

// Stream returns the miss ratio of a streaming scan with elemSize-byte
// elements: every line is touched once, so elemSize/LineSize of the
// element accesses miss, and prefetching does not change the traffic
// (only the exposed latency).
func (m MissModel) Stream(elemSize int) float64 {
	if elemSize <= 0 {
		return 0
	}
	r := float64(elemSize) / LineSize
	if r > 1 {
		r = 1
	}
	return r
}

// Strided returns the miss ratio of a constant-stride scan: one miss per
// distinct line touched. strideBytes is the byte distance between
// consecutive element accesses.
func (m MissModel) Strided(elemSize, strideBytes int) float64 {
	if elemSize <= 0 || strideBytes <= 0 {
		return 0
	}
	if strideBytes >= LineSize {
		return 1 // every access lands on a fresh line
	}
	return float64(strideBytes) / LineSize
}

// Stencil returns the miss ratio of a points-point stencil sweep over a
// working set of wsBytes: cold misses dominate (one per line) and the
// neighbouring reads hit, so the program-level miss ratio is the stream
// ratio divided by the number of accesses per element.
func (m MissModel) Stencil(elemSize, points int) float64 {
	if points <= 0 {
		points = 1
	}
	return m.Stream(elemSize) / float64(points)
}

// Random returns the miss ratio of uniform random accesses over a working
// set of wsBytes. With a working set at or under the cache size the data
// stays resident (miss ratio → 0); beyond it, the probability a random
// line is resident is CacheBytes/wsBytes.
func (m MissModel) Random(wsBytes float64) float64 {
	if wsBytes <= 0 || m.CacheBytes <= 0 {
		return 0
	}
	if wsBytes <= m.CacheBytes {
		// Small sets still take cold misses; amortized across a long
		// phase the steady-state ratio approaches 0. Use a small floor
		// to avoid pretending memory is free.
		return 0.01
	}
	r := 1 - m.CacheBytes/wsBytes
	return math.Max(r, 0.01)
}

// DirectMappedPageCache emulates Optane Memory Mode: DRAM acts as a
// direct-mapped, write-back cache of PM at page granularity, managed by
// "hardware" (i.e. invisible to software page placement). Software sees a
// flat PM-sized address space.
type DirectMappedPageCache struct {
	numFrames uint64  // DRAM capacity in pages
	tags      []int64 // resident PM page per frame, -1 if empty
	dirty     []bool

	Hits, Misses, Fills, WritebackEvicts uint64
}

// NewDirectMappedPageCache builds a Memory Mode cache with the given
// number of DRAM page frames.
func NewDirectMappedPageCache(numFrames uint64) (*DirectMappedPageCache, error) {
	if numFrames == 0 {
		return nil, fmt.Errorf("cache: memory-mode cache needs at least one frame")
	}
	tags := make([]int64, numFrames)
	for i := range tags {
		tags[i] = -1
	}
	return &DirectMappedPageCache{numFrames: numFrames, tags: tags, dirty: make([]bool, numFrames)}, nil
}

// AccessPage simulates an access to PM page number page. write marks the
// cached copy dirty. It returns true if the access hit DRAM.
func (d *DirectMappedPageCache) AccessPage(page uint64, write bool) bool {
	frame := page % d.numFrames
	if d.tags[frame] == int64(page) {
		d.Hits++
		if write {
			d.dirty[frame] = true
		}
		return true
	}
	d.Misses++
	if d.tags[frame] >= 0 && d.dirty[frame] {
		d.WritebackEvicts++
	}
	d.tags[frame] = int64(page)
	d.dirty[frame] = write
	d.Fills++
	return false
}

// HitRatio returns DRAM hits per access so far.
func (d *DirectMappedPageCache) HitRatio() float64 {
	total := d.Hits + d.Misses
	if total == 0 {
		return 0
	}
	return float64(d.Hits) / float64(total)
}

// ExpectedDirectMappedHitRatio is the closed-form steady-state hit ratio
// of a direct-mapped page cache of frames frames, used by the engine's
// fast path: for a working set of wsPages pages, the cache hits when the
// page maps to a frame it still occupies. Under uniform mapping the
// resident fraction is min(1, frames/wsPages), degraded by conflict
// misses that grow with occupancy.
func ExpectedDirectMappedHitRatio(frames, wsPages float64) float64 {
	if wsPages <= 0 || frames <= 0 {
		return 1
	}
	if wsPages <= frames {
		// Even when the set fits, direct mapping suffers conflicts:
		// the probability a page has no conflicting partner is
		// (1-1/frames)^(wsPages-1) ≈ exp(-(wsPages-1)/frames).
		return math.Exp(-(wsPages - 1) / frames * 0.5)
	}
	return frames / wsPages * math.Exp(-0.5)
}
