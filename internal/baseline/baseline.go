// Package baseline implements the data-placement policies Merchandiser is
// compared against in the paper's evaluation (Section 7):
//
//   - PMOnly — everything stays on PM (the normalization baseline);
//   - MemoryMode — Optane Memory Mode, DRAM as a hardware-managed
//     direct-mapped page cache (the engine emulates it);
//   - MemoryOptimizer — the industry-quality software daemon: sampled
//     PM-page hotness, hottest pages migrated to DRAM, coldest DRAM pages
//     evicted; application- and task-agnostic;
//   - Sparta — the application-specific sparse-tensor policy: statically
//     pins the most-reused shared operand in DRAM, ignoring cross-task
//     load balance;
//   - WarpXPM — the application-specific manual-lifetime policy: an
//     oracle per-instance placement by true access density.
//
// The migration Daemon here is shared with Merchandiser (internal/core),
// which adds the load-balance gate — exactly how the paper describes
// Merchandiser as "extending the existing solution".
package baseline

import (
	"cmp"
	"context"
	"errors"
	"slices"
	"sort"

	"merchandiser/internal/hm"
	"merchandiser/internal/merr"
	"merchandiser/internal/placement"
	"merchandiser/internal/profiler"
	"merchandiser/internal/task"
)

// PMOnly keeps all pages on PM.
type PMOnly struct{ task.Base }

// Name implements task.Policy.
func (PMOnly) Name() string { return "PM-only" }

// MemoryMode emulates the Optane hardware-managed DRAM cache.
type MemoryMode struct{ task.Base }

// Name implements task.Policy.
func (MemoryMode) Name() string { return "MemoryMode" }

// MemoryMode implements task.Policy.
func (MemoryMode) MemoryMode() bool { return true }

// DaemonConfig tunes the hot-page migration daemon.
type DaemonConfig struct {
	// SampleEvents bounds profiling observations per interval.
	SampleEvents int
	// ThermostatRegionPages is the DRAM profiler's region size in pages.
	ThermostatRegionPages int
	// MaxMigrationsPerTick throttles migration traffic.
	MaxMigrationsPerTick int
	// RegionPages is the migration granularity in pages. The real
	// MemoryOptimizer accounts and moves memory in 2 MB huge regions;
	// that coarseness is one reason task-agnostic PGO shares fast memory
	// unfairly. Merchandiser overrides this to 1 (4 KB placement through
	// memkind). Default 64.
	RegionPages int
	Seed        int64
}

func (c DaemonConfig) withDefaults() DaemonConfig {
	if c.SampleEvents <= 0 {
		// Sampling is deliberately sparse: the real profiler bounds its
		// PTE-scan work, and the paper names the resulting bias — heavy
		// tasks dominate the samples — as a root cause of PGO imbalance.
		c.SampleEvents = 512
	}
	if c.ThermostatRegionPages <= 0 {
		c.ThermostatRegionPages = 8
	}
	if c.MaxMigrationsPerTick <= 0 {
		c.MaxMigrationsPerTick = 1024
	}
	if c.RegionPages <= 0 {
		c.RegionPages = 64
	}
	return c
}

// Daemon is the MemoryOptimizer-style migration engine policy: per tick it
// samples PM page hotness (AccessBitSampler) and DRAM page hotness
// (Thermostat), folds the samples into an exponentially-aged per-page
// score — the "hot page accounting" of the real daemon, which prevents
// chasing transient streams — then migrates the highest-scoring PM pages
// into DRAM, evicting lower-scoring DRAM pages when full. An optional Gate
// makes it load-balance aware (Merchandiser).
type Daemon struct {
	cfg     DaemonConfig
	sampler *profiler.AccessBitSampler
	thermo  *profiler.Thermostat
	scores  map[*hm.Object][]float64

	// Gate, when set, blocks migration of pages whose owning task already
	// reached its DRAM-access goal.
	Gate *placement.Gate
	// NoEvict stops the daemon from displacing DRAM residents: it only
	// fills free space. Merchandiser sets this — its DRAM contents are
	// the realized Algorithm 1 plan, which reactive hotness must not
	// dismantle.
	NoEvict bool

	// Migrations counts pages moved to DRAM by this daemon.
	Migrations uint64
	// GateBlocked counts candidate pages the gate rejected.
	GateBlocked uint64
	// MigrationsByOwner attributes DRAM-bound migrations to the owning
	// task — §7.1 reports that under load imbalance the page counts
	// migrated per task vary by up to 21.4x.
	MigrationsByOwner map[string]uint64
}

// NewDaemon builds a migration daemon.
func NewDaemon(cfg DaemonConfig) *Daemon {
	cfg = cfg.withDefaults()
	return &Daemon{
		cfg:               cfg,
		sampler:           profiler.NewAccessBitSampler(cfg.SampleEvents, cfg.Seed),
		thermo:            profiler.NewThermostat(cfg.ThermostatRegionPages, cfg.Seed+1),
		scores:            map[*hm.Object][]float64{},
		MigrationsByOwner: map[string]uint64{},
	}
}

// Name implements hm.Policy.
func (d *Daemon) Name() string {
	if d.Gate != nil {
		return "merchandiser-daemon"
	}
	return "memory-optimizer-daemon"
}

// scoreDecay ages the per-page hotness accounting: hotness integrates
// over tens of intervals — long enough that a repeatedly-swept object (a
// matrix re-read every iteration) ranks uniformly hot instead of the
// daemon chasing its sweep window, short enough that dead data cools and
// gets evicted.
const scoreDecay = 0.97

// evictMargin is the migration hysteresis: a PM page displaces a DRAM
// resident only when its score clearly exceeds the victim's. Real tiering
// daemons use such thresholds to avoid ping-ponging pages of equal
// temperature.
const evictMargin = 1.5

// rankKey orders one management unit of Tick: its per-page score density,
// then its object's ID and the region's first page; unit indexes Tick's
// unit slice. A key holds no pointers, so sorting keys moves plain
// 32-byte values.
type rankKey struct {
	density   float64
	id, start int
	unit      int
}

// compareUnits orders keys by density, hottest first when hottestFirst is
// set and coldest first otherwise, breaking ties by ascending object ID,
// then by ascending start page. Object IDs are unique within one
// hm.Memory and each (object, region) enters a list at most once, and
// densities are never NaN (candidates need a positive score; scores are
// sums of non-negative profiler estimates), so the order is total: any
// correct sort yields the same sequence, and the first key of a list is
// its minimum under this order.
func compareUnits(a, b rankKey, hottestFirst bool) int {
	if a.density != b.density {
		if (a.density > b.density) == hottestFirst {
			return -1
		}
		return 1
	}
	if a.id != b.id {
		return cmp.Compare(a.id, b.id)
	}
	return cmp.Compare(a.start, b.start)
}

// rankUnits sorts keys by compareUnits.
func rankUnits(keys []rankKey, hottestFirst bool) {
	slices.SortFunc(keys, func(a, b rankKey) int { return compareUnits(a, b, hottestFirst) })
}

// Tick implements hm.Policy.
func (d *Daemon) Tick(now float64, mem *hm.Memory, tasks []hm.TaskStatus) {
	if d.Gate != nil {
		d.Gate.Update(tasks)
	}
	// Age all scores; drop freed objects.
	for obj, sc := range d.scores {
		if obj.NumPages() != len(sc) {
			delete(d.scores, obj)
			continue
		}
		for i := range sc {
			sc[i] *= scoreDecay
		}
	}
	score := func(obj *hm.Object, page int) *float64 {
		sc, ok := d.scores[obj]
		if !ok {
			sc = make([]float64, obj.NumPages())
			d.scores[obj] = sc
		}
		return &sc[page]
	}
	// Fold in this interval's profile: the sampled PM profile and the
	// Thermostat DRAM profile.
	hot := d.sampler.SampleTier(mem, hm.PM)
	for _, h := range hot {
		*score(h.Obj, h.Page) += (1 - scoreDecay) * h.Accesses
	}
	resident := d.thermo.EstimateTier(mem, hm.DRAM)
	for _, r := range resident {
		*score(r.Obj, r.Page) += (1 - scoreDecay) * r.Accesses
	}

	// A NoEvict daemon with no free DRAM moves nothing: its walk would stop
	// at the first allowed candidate, having counted the blocked ones
	// ranked above it.
	if d.NoEvict && mem.FreePages(hm.DRAM) == 0 {
		d.GateBlocked += d.blockedAboveFirstAllowed()
		return
	}

	// Units of management: regions of RegionPages pages (Merchandiser
	// overrides to single pages). A region's candidacy is judged by the
	// per-page score density of its PM-resident pages; eviction by the
	// density of DRAM-resident pages. Victims are read only on the
	// eviction branch, which a NoEvict daemon never reaches, so it does
	// not collect them. A unit's pages are pages[lo:hi] of one flat
	// buffer, sized up front for every page a unit can hold; allowed is
	// the gate's verdict on its object, which only Update changes.
	type unit struct {
		obj     *hm.Object
		lo, hi  int
		allowed bool
	}
	rp := d.cfg.RegionPages
	size := 0
	for obj := range d.scores {
		size += obj.NumPages()
	}
	if !d.NoEvict {
		size += int(mem.UsedPages(hm.DRAM)) // unscored objects' victims
	}
	pages := make([]int32, 0, size)
	var cands, victims []unit
	var candKeys, victimKeys []rankKey
	// addVictim makes obj's DRAM pages in [start, end) one victim unit,
	// ranked by their mean score (zero without scores).
	addVictim := func(obj *hm.Object, sc []float64, start, end int) {
		lo := len(pages)
		var dramScore float64
		for p := start; p < end; p++ {
			if obj.Loc[p] == hm.DRAM {
				pages = append(pages, int32(p))
				if sc != nil {
					dramScore += sc[p]
				}
			}
		}
		if n := len(pages) - lo; n > 0 {
			victimKeys = append(victimKeys, rankKey{dramScore / float64(n), obj.ID, start, len(victims)})
			victims = append(victims, unit{obj, lo, len(pages), false})
		}
	}
	for obj, sc := range d.scores {
		n := obj.NumPages()
		allowed := d.Gate == nil || d.Gate.Allows(obj)
		for start := 0; start < n; start += rp {
			end := min(start+rp, n)
			lo := len(pages)
			var pmScore float64
			for p := start; p < end; p++ {
				if obj.Loc[p] == hm.PM {
					pages = append(pages, int32(p))
					pmScore += sc[p]
				}
			}
			if pm := len(pages) - lo; pm > 0 && pmScore > 0 {
				candKeys = append(candKeys, rankKey{pmScore / float64(pm), obj.ID, start, len(cands)})
				cands = append(cands, unit{obj, lo, len(pages), allowed})
			} else {
				pages = pages[:lo]
			}
			if !d.NoEvict {
				addVictim(obj, sc, start, end)
			}
		}
	}
	// DRAM pages of objects the profilers never scored are zero-density
	// victims.
	if !d.NoEvict {
		for _, obj := range mem.Objects() {
			if _, ok := d.scores[obj]; ok {
				continue
			}
			for start := 0; start < obj.NumPages(); start += rp {
				addVictim(obj, nil, start, min(start+rp, obj.NumPages()))
			}
		}
	}
	rankUnits(candKeys, true)
	rankUnits(victimKeys, false)

	vIdx := 0
	migrated := 0
	evicted := map[*hm.Object]map[int]bool{}
	for _, ck := range candKeys {
		if migrated >= d.cfg.MaxMigrationsPerTick {
			break
		}
		c := cands[ck.unit]
		if !c.allowed {
			d.GateBlocked += uint64(c.hi - c.lo)
			continue
		}
		stop := false
		for _, p := range pages[c.lo:c.hi] {
			if migrated >= d.cfg.MaxMigrationsPerTick {
				break
			}
			if mem.FreePages(hm.DRAM) == 0 {
				if d.NoEvict {
					stop = true
					break
				}
				// Evict from the coldest DRAM regions, page by page.
				for vIdx < len(victimKeys) {
					vk := victimKeys[vIdx]
					v := &victims[vk.unit]
					if vk.density*evictMargin >= ck.density {
						stop = true // nothing clearly colder remains
						break
					}
					moved := false
					ev := evicted[v.obj]
					if ev == nil {
						ev = map[int]bool{}
						evicted[v.obj] = ev
					}
					for _, vp := range pages[v.lo:v.hi] {
						vp := int(vp)
						if ev[vp] || v.obj.Loc == nil || vp >= v.obj.NumPages() || v.obj.Loc[vp] != hm.DRAM {
							continue
						}
						if mem.Migrate(v.obj, vp, hm.PM) == nil {
							ev[vp] = true
							moved = true
						}
						break
					}
					if moved {
						break
					}
					vIdx++
				}
				if stop || mem.FreePages(hm.DRAM) == 0 {
					stop = true
					break
				}
			}
			if err := mem.Migrate(c.obj, int(p), hm.DRAM); err != nil {
				if errors.Is(err, merr.ErrQuota) {
					// Only this candidate's tenant is out of quota;
					// candidates of other tenants may still have room.
					break
				}
				stop = true
				break
			}
			migrated++
			d.MigrationsByOwner[c.obj.Owner]++
		}
		if stop {
			break
		}
	}
	d.Migrations += uint64(migrated)
}

// blockedAboveFirstAllowed returns what the candidate walk adds to
// GateBlocked when it stops at the first allowed candidate: the PM pages
// of every gate-blocked candidate ranked above it, or of every blocked
// candidate when none is allowed. compareUnits is a total order, so the
// first allowed candidate is the minimum over the allowed ones, and a
// blocked candidate precedes it exactly when it compares below it: no
// sort is needed. One pass over the allowed objects finds that minimum,
// and one over the blocked objects sums their candidates ranked above it,
// so each page is read once and nothing is kept between the passes.
func (d *Daemon) blockedAboveFirstAllowed() uint64 {
	if d.Gate == nil {
		return 0 // every candidate is allowed
	}
	var first rankKey
	found := false
	d.eachCandidate(true, func(k rankKey, _ int) {
		if !found || compareUnits(k, first, true) < 0 {
			first, found = k, true
		}
	})
	var pages uint64
	d.eachCandidate(false, func(k rankKey, pm int) {
		if !found || compareUnits(k, first, true) < 0 {
			pages += uint64(pm)
		}
	})
	return pages
}

// eachCandidate calls fn for every candidate unit of a tick — a region
// with PM-resident pages and a positive score — whose object the gate
// allows (or blocks, when allowed is false), with its rank key (unit left
// 0) and its number of PM pages.
func (d *Daemon) eachCandidate(allowed bool, fn func(k rankKey, pm int)) {
	rp := d.cfg.RegionPages
	for obj, sc := range d.scores {
		if d.Gate.Allows(obj) != allowed {
			continue
		}
		n := obj.NumPages()
		for start := 0; start < n; start += rp {
			end := min(start+rp, n)
			pm := 0
			var pmScore float64
			for p := start; p < end; p++ {
				if obj.Loc[p] == hm.PM {
					pm++
					pmScore += sc[p]
				}
			}
			if pm > 0 && pmScore > 0 {
				fn(rankKey{density: pmScore / float64(pm), id: obj.ID, start: start}, pm)
			}
		}
	}
}

// MigrationSpread returns the largest and smallest per-task DRAM-bound
// migration counts (ignoring shared/ownerless objects) — the §7.1
// "pages migrated among tasks can vary by up to 21.4x" measurement.
func (d *Daemon) MigrationSpread() (max, min uint64) {
	first := true
	for owner, n := range d.MigrationsByOwner {
		if owner == "" {
			continue
		}
		if first {
			max, min = n, n
			first = false
			continue
		}
		if n > max {
			max = n
		}
		if n < min {
			min = n
		}
	}
	return max, min
}

// MemoryOptimizer is the paper's industry-quality software baseline.
type MemoryOptimizer struct {
	task.Base
	daemon *Daemon
}

// NewMemoryOptimizer builds the baseline with the given daemon config.
func NewMemoryOptimizer(cfg DaemonConfig) *MemoryOptimizer {
	return &MemoryOptimizer{daemon: NewDaemon(cfg)}
}

// Name implements task.Policy.
func (*MemoryOptimizer) Name() string { return "MemoryOptimizer" }

// Tick implements the unified task.Policy contract by driving the
// migration daemon at every engine tick.
func (m *MemoryOptimizer) Tick(now float64, mem *hm.Memory, tasks []hm.TaskStatus) {
	m.daemon.Tick(now, mem, tasks)
}

// Migrations reports pages migrated to DRAM so far.
func (m *MemoryOptimizer) Migrations() uint64 { return m.daemon.Migrations }

// Daemon exposes the underlying migration daemon for inspection.
func (m *MemoryOptimizer) Daemon() *Daemon { return m.daemon }

// Sparta is the application-specific sparse-tensor policy (Liu et al.,
// PPoPP'21): using application knowledge of element-wise reuse, it keeps
// the most-reused operands (e.g. SpGEMM's gathered B matrices) in fast
// memory. Its placement is globally greedy by reuse density — it knows the
// data but, the paper's criticism, "ignores the load balancing caused by
// multiple matrix multiplications": whichever task's operands are densest
// win all the fast memory.
type Sparta struct {
	task.Base
	// Priority lists object-name substrings the application marks as
	// reused operands; only those are candidates for fast memory.
	Priority []string
}

// Name implements task.Policy.
func (*Sparta) Name() string { return "Sparta" }

// Setup implements task.Policy: pin priority objects present at startup.
func (s *Sparta) Setup(ctx context.Context, mem *hm.Memory, app task.App) error {
	s.place(mem, nil)
	return nil
}

// BeforeInstance implements task.Policy: re-place for the instance's
// (possibly reallocated) operands, ranked by their true access density
// when works are available.
func (s *Sparta) BeforeInstance(ctx context.Context, i int, mem *hm.Memory, works []hm.TaskWork) error {
	s.place(mem, works)
	return nil
}

func (s *Sparta) place(mem *hm.Memory, works []hm.TaskWork) {
	// Collect the marked operands.
	var cands []*hm.Object
	for _, o := range mem.Objects() {
		for _, want := range s.Priority {
			if nameMatches(o.Name, want) {
				cands = append(cands, o)
				break
			}
		}
	}
	if len(cands) == 0 {
		return
	}
	// Rank by access density (program accesses per page) using the
	// application's own knowledge of the upcoming multiplications; fall
	// back to size (smaller = denser reuse) when no works are known.
	density := map[*hm.Object]float64{}
	for _, tw := range works {
		for _, ph := range tw.Phases {
			for _, pa := range ph.Accesses {
				if n := pa.Obj.NumPages(); n > 0 {
					density[pa.Obj] += pa.ProgramAccesses / float64(n)
				}
			}
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		da, db := density[cands[a]], density[cands[b]]
		if da != db {
			return da > db
		}
		if cands[a].Bytes != cands[b].Bytes {
			return cands[a].Bytes < cands[b].Bytes
		}
		return cands[a].ID < cands[b].ID
	})
	// Evict stale non-candidate placement, then fill greedily — no
	// per-task budgets, no balance.
	isCand := map[*hm.Object]bool{}
	for _, o := range cands {
		isCand[o] = true
	}
	for _, o := range mem.Objects() {
		if isCand[o] {
			continue
		}
		for p := 0; p < o.NumPages() && o.DRAMPages() > 0; p++ {
			if o.Loc[p] == hm.DRAM {
				_ = mem.Migrate(o, p, hm.PM)
			}
		}
	}
	for _, o := range cands {
		for p := 0; p < o.NumPages(); p++ {
			if o.Loc[p] == hm.DRAM {
				continue
			}
			if mem.Migrate(o, p, hm.DRAM) != nil {
				return // DRAM full
			}
		}
	}
}

func nameMatches(name, want string) bool {
	return want != "" && (name == want || containsSub(name, want))
}

func containsSub(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// WarpXPM is the application-specific manual policy for WarpX (Ren et al.,
// ICS'21): developers analyzed data-object lifetimes and access counts by
// hand and placed data across the hierarchy accordingly. Modeled as an
// oracle that, before every instance, splits DRAM evenly across the
// symmetric domain blocks (the manual analysis balanced them by
// construction) and fills each block's share with its truly densest
// objects. Perfect knowledge, no profiling lag, no prediction error —
// which is why the paper measures Merchandiser slightly (4.6%) behind it
// on WarpX.
type WarpXPM struct {
	task.Base
	// LLCBytes is needed to estimate main-memory traffic; set from the
	// spec at policy creation.
	LLCBytes float64
	// daemon performs the scheme's runtime data movement (the manual
	// lifetime analysis plans when data moves across the hierarchy, not
	// just where it starts). Page-granular, ungated.
	daemon *Daemon
}

// NewWarpXPM builds the manual-placement policy.
func NewWarpXPM(llcBytes float64, seed int64) *WarpXPM {
	// No reactive daemon: the manual analysis decides placement up
	// front; reactive hotness-chasing would only churn it.
	return &WarpXPM{LLCBytes: llcBytes}
}

// Name implements task.Policy.
func (*WarpXPM) Name() string { return "WarpX-PM" }

// Tick implements the unified task.Policy contract; the manual scheme
// has no reactive daemon (see NewWarpXPM), so ticks are a no-op unless
// one is installed.
func (w *WarpXPM) Tick(now float64, mem *hm.Memory, tasks []hm.TaskStatus) {
	if w.daemon != nil {
		w.daemon.Tick(now, mem, tasks)
	}
}

// BeforeInstance implements task.Policy.
func (w *WarpXPM) BeforeInstance(ctx context.Context, i int, mem *hm.Memory, works []hm.TaskWork) error {
	if len(works) == 0 {
		return nil // nothing known to place against
	}
	type objDensity struct {
		obj     *hm.Object
		density float64
	}
	// True per-task object densities from the works themselves.
	perTask := make([][]objDensity, len(works))
	for ti, tw := range works {
		density := map[*hm.Object]float64{}
		for _, ph := range tw.Phases {
			for _, pa := range ph.Accesses {
				main := pa.Pattern.MainMemoryAccesses(pa.ProgramAccesses, float64(pa.Obj.Bytes), w.LLCBytes)
				if n := pa.Obj.NumPages(); n > 0 {
					density[pa.Obj] += main / float64(n)
				}
			}
		}
		ranked := make([]objDensity, 0, len(density))
		for o, d := range density {
			ranked = append(ranked, objDensity{o, d})
		}
		sort.Slice(ranked, func(a, b int) bool {
			if ranked[a].density != ranked[b].density {
				return ranked[a].density > ranked[b].density
			}
			return ranked[a].obj.ID < ranked[b].obj.ID
		})
		perTask[ti] = ranked
	}

	// Even per-block DRAM budget, spent densest-first.
	capacity := mem.FreePages(hm.DRAM) + mem.UsedPages(hm.DRAM)
	budget := capacity / uint64(len(works))
	desired := map[*hm.Object]uint64{}
	for _, ranked := range perTask {
		left := budget
		for _, od := range ranked {
			if left == 0 {
				break
			}
			take := uint64(od.obj.NumPages()) - desired[od.obj]
			if take > left {
				take = left
			}
			desired[od.obj] += take
			left -= take
		}
	}
	// Realize: demote non-desired DRAM pages, then promote.
	for _, o := range mem.Objects() {
		want := desired[o]
		for p := o.NumPages() - 1; p >= 0 && o.DRAMPages() > want; p-- {
			if o.Loc[p] == hm.DRAM {
				if err := mem.Migrate(o, p, hm.PM); err != nil {
					return err
				}
			}
		}
	}
	for o, want := range desired {
		n := o.NumPages()
		if n == 0 || o.DRAMPages() >= want {
			continue
		}
		// Stripe the DRAM share through the object: the manual scheme
		// tiles data across tiers so every phase of a sweep blends fast
		// and slow accesses instead of exhausting its fast prefix early.
		need := want - o.DRAMPages()
		stride := float64(n) / float64(need)
		if stride < 1 {
			stride = 1
		}
		for k := 0; o.DRAMPages() < want; k++ {
			p := int(float64(k) * stride)
			if p >= n {
				break
			}
			if o.Loc[p] != hm.DRAM {
				if mem.Migrate(o, p, hm.DRAM) != nil {
					return nil // full; best effort
				}
			}
		}
		for p := 0; p < n && o.DRAMPages() < want; p++ {
			if o.Loc[p] != hm.DRAM {
				if mem.Migrate(o, p, hm.DRAM) != nil {
					return nil
				}
			}
		}
	}
	return nil
}
