package baseline

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"merchandiser/internal/access"
	"merchandiser/internal/hm"
	"merchandiser/internal/placement"
)

func testSpec() hm.SystemSpec {
	s := hm.DefaultSpec()
	s.Tiers[hm.DRAM].CapacityBytes = 64 * 4096 // 64 DRAM pages
	s.Tiers[hm.PM].CapacityBytes = 1024 * 4096
	s.LLCBytes = 64 << 10
	return s
}

func heatPages(o *hm.Object, accesses float64) {
	for p := 0; p < o.NumPages(); p++ {
		o.IntervalAccess[p] = accesses
	}
}

func TestDaemonMigratesHotPages(t *testing.T) {
	mem := hm.NewMemory(testSpec())
	hotObj, _ := mem.Alloc("hot", "t0", 32*4096, hm.PM)
	coldObj, _ := mem.Alloc("cold", "t1", 32*4096, hm.PM)
	heatPages(hotObj, 1000)
	heatPages(coldObj, 1)

	d := NewDaemon(DaemonConfig{SampleEvents: 4096, RegionPages: 1, Seed: 1})
	d.Tick(0.1, mem, nil)
	if d.Migrations == 0 {
		t.Fatal("daemon migrated nothing")
	}
	if hotObj.DRAMPages() <= coldObj.DRAMPages() {
		t.Fatalf("hot object got %d DRAM pages, cold got %d",
			hotObj.DRAMPages(), coldObj.DRAMPages())
	}
	if err := mem.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDaemonEvictsColdForHot(t *testing.T) {
	spec := testSpec()
	spec.Tiers[hm.DRAM].CapacityBytes = 16 * 4096
	mem := hm.NewMemory(spec)
	old, _ := mem.Alloc("old", "t0", 16*4096, hm.DRAM) // fills DRAM
	hot, _ := mem.Alloc("hot", "t1", 16*4096, hm.PM)
	heatPages(old, 1)
	heatPages(hot, 10000)

	d := NewDaemon(DaemonConfig{SampleEvents: 8192, RegionPages: 1, Seed: 2})
	d.Tick(0.1, mem, nil)
	if hot.DRAMPages() == 0 {
		t.Fatal("hot pages should displace cold DRAM pages")
	}
	if old.DRAMPages() == uint64(old.NumPages()) {
		t.Fatal("cold pages should have been evicted")
	}
	if mem.UsedPages(hm.DRAM) > spec.CapacityPages(hm.DRAM) {
		t.Fatal("capacity violated")
	}
}

func TestDaemonDoesNotEvictHotterForColder(t *testing.T) {
	spec := testSpec()
	spec.Tiers[hm.DRAM].CapacityBytes = 16 * 4096
	mem := hm.NewMemory(spec)
	resident, _ := mem.Alloc("resident", "t0", 16*4096, hm.DRAM)
	lukewarm, _ := mem.Alloc("lukewarm", "t1", 16*4096, hm.PM)
	heatPages(resident, 10000)
	heatPages(lukewarm, 10)

	d := NewDaemon(DaemonConfig{SampleEvents: 8192, RegionPages: 1, Seed: 3})
	d.Tick(0.1, mem, nil)
	if resident.DRAMPages() != uint64(resident.NumPages()) {
		t.Fatal("hot resident pages must not be evicted for colder candidates")
	}
}

func TestDaemonGateBlocks(t *testing.T) {
	mem := hm.NewMemory(testSpec())
	satisfied, _ := mem.Alloc("satisfied", "done", 16*4096, hm.PM)
	needy, _ := mem.Alloc("needy", "want", 16*4096, hm.PM)
	heatPages(satisfied, 5000)
	heatPages(needy, 1000)

	d := NewDaemon(DaemonConfig{SampleEvents: 8192, RegionPages: 1, Seed: 4})
	d.Gate = &placement.Gate{
		GoalRatio: map[string]float64{"done": 0.2, "want": 0.9},
		Achieved:  map[string]float64{},
	}
	d.Tick(0.1, mem, []hm.TaskStatus{
		{Name: "done", RDRAM: 0.5}, // above its 0.2 goal
		{Name: "want", RDRAM: 0.1}, // below its 0.9 goal
	})
	if satisfied.DRAMPages() != 0 {
		t.Fatalf("gated task's pages migrated: %d", satisfied.DRAMPages())
	}
	if needy.DRAMPages() == 0 {
		t.Fatal("under-goal task's pages should migrate")
	}
	if d.GateBlocked == 0 {
		t.Fatal("gate blocks should be counted")
	}
}

func TestDaemonThrottle(t *testing.T) {
	mem := hm.NewMemory(testSpec())
	o, _ := mem.Alloc("hot", "t0", 48*4096, hm.PM)
	heatPages(o, 1000)
	d := NewDaemon(DaemonConfig{SampleEvents: 8192, MaxMigrationsPerTick: 5, RegionPages: 1, Seed: 5})
	d.Tick(0.1, mem, nil)
	if d.Migrations > 5 {
		t.Fatalf("throttle violated: %d migrations", d.Migrations)
	}
}

func TestSpartaPinsPriorityObjects(t *testing.T) {
	mem := hm.NewMemory(testSpec())
	b, _ := mem.Alloc("spgemm/B", "", 32*4096, hm.PM)
	a, _ := mem.Alloc("spgemm/A0", "t0", 32*4096, hm.PM)
	s := &Sparta{Priority: []string{"/B"}}
	if err := s.Setup(context.Background(), mem, nil); err != nil {
		t.Fatal(err)
	}
	if b.DRAMPages() != uint64(b.NumPages()) {
		t.Fatalf("B pinned %d of %d pages", b.DRAMPages(), b.NumPages())
	}
	if a.DRAMPages() != 0 {
		t.Fatal("non-priority object should stay on PM")
	}
	if (&Sparta{}).Name() != "Sparta" {
		t.Fatal("name")
	}
}

func TestSpartaStopsAtCapacity(t *testing.T) {
	spec := testSpec()
	spec.Tiers[hm.DRAM].CapacityBytes = 8 * 4096
	mem := hm.NewMemory(spec)
	b, _ := mem.Alloc("B", "", 32*4096, hm.PM)
	s := &Sparta{Priority: []string{"B"}}
	if err := s.BeforeInstance(context.Background(), 0, mem, nil); err != nil {
		t.Fatal(err)
	}
	if b.DRAMPages() != 8 {
		t.Fatalf("pinned %d pages, capacity 8", b.DRAMPages())
	}
}

func TestWarpXPMPacksDensestObjects(t *testing.T) {
	spec := testSpec()
	spec.Tiers[hm.DRAM].CapacityBytes = 32 * 4096
	mem := hm.NewMemory(spec)
	dense, _ := mem.Alloc("dense", "t0", 16*4096, hm.PM)
	sparse, _ := mem.Alloc("sparse", "t0", 64*4096, hm.PM)
	// Stale placement from a previous instance: sparse squats in DRAM.
	for p := 0; p < 8; p++ {
		if err := mem.Migrate(sparse, p, hm.DRAM); err != nil {
			t.Fatal(err)
		}
	}
	works := []hm.TaskWork{{
		Name: "t0",
		Phases: []hm.Phase{{
			Accesses: []hm.PhaseAccess{
				{Obj: dense, Pattern: randomPattern(), ProgramAccesses: 1e8},
				{Obj: sparse, Pattern: randomPattern(), ProgramAccesses: 1e6},
			},
		}},
	}}
	w := NewWarpXPM(spec.LLCBytes, 1)
	if err := w.BeforeInstance(context.Background(), 0, mem, works); err != nil {
		t.Fatal(err)
	}
	if dense.DRAMPages() != uint64(dense.NumPages()) {
		t.Fatalf("dense object in DRAM: %d of %d pages", dense.DRAMPages(), dense.NumPages())
	}
	// The remaining balanced budget spills into the sparse object, but the
	// dense one is served first and completely.
	if sparse.DRAMPages() > 32-uint64(dense.NumPages()) {
		t.Fatalf("sparse object drew %d DRAM pages beyond the leftover budget", sparse.DRAMPages())
	}
	if w.Name() != "WarpX-PM" {
		t.Fatal("name")
	}
}

func randomPattern() access.Pattern {
	return access.Pattern{Kind: access.Random, ElemSize: 8}
}

func TestTrivialPolicies(t *testing.T) {
	if (PMOnly{}).Name() != "PM-only" {
		t.Fatal("PMOnly name")
	}
	if (PMOnly{}).MemoryMode() {
		t.Fatal("PMOnly is not memory mode")
	}
	if (MemoryMode{}).Name() != "MemoryMode" {
		t.Fatal("MemoryMode name")
	}
	if !(MemoryMode{}).MemoryMode() {
		t.Fatal("MemoryMode must report memory mode")
	}
	mo := NewMemoryOptimizer(DaemonConfig{})
	if mo.Name() != "MemoryOptimizer" {
		t.Fatal("MemoryOptimizer wiring")
	}
	if mo.daemon.Migrations != 0 {
		t.Fatal("fresh optimizer has no migrations")
	}
	d := NewDaemon(DaemonConfig{})
	if d.Name() != "memory-optimizer-daemon" {
		t.Fatal("daemon name")
	}
	d.Gate = &placement.Gate{}
	if d.Name() != "merchandiser-daemon" {
		t.Fatal("gated daemon name")
	}
}

func TestMigrationSpread(t *testing.T) {
	d := NewDaemon(DaemonConfig{})
	if max, min := d.MigrationSpread(); max != 0 || min != 0 {
		t.Fatalf("fresh daemon spread = %d/%d", max, min)
	}
	d.MigrationsByOwner["a"] = 100
	d.MigrationsByOwner["b"] = 10
	d.MigrationsByOwner[""] = 9999 // shared objects excluded
	max, min := d.MigrationSpread()
	if max != 100 || min != 10 {
		t.Fatalf("spread = %d/%d, want 100/10", max, min)
	}
	if mo := NewMemoryOptimizer(DaemonConfig{}); mo.Daemon() == nil {
		t.Fatal("MemoryOptimizer should expose its daemon")
	}
}

func TestDaemonNoEvict(t *testing.T) {
	spec := testSpec()
	spec.Tiers[hm.DRAM].CapacityBytes = 8 * 4096
	mem := hm.NewMemory(spec)
	resident, _ := mem.Alloc("resident", "t0", 8*4096, hm.DRAM)
	hot, _ := mem.Alloc("hot", "t1", 8*4096, hm.PM)
	heatPages(hot, 100000)
	heatPages(resident, 1) // cold resident would normally be evicted
	d := NewDaemon(DaemonConfig{SampleEvents: 8192, RegionPages: 1, Seed: 9})
	d.NoEvict = true
	d.Tick(0.1, mem, nil)
	if resident.DRAMPages() != uint64(resident.NumPages()) {
		t.Fatal("NoEvict daemon displaced resident pages")
	}
	if hot.DRAMPages() != 0 {
		t.Fatal("NoEvict daemon migrated into a full tier")
	}
}

func TestDaemonRegionGranularity(t *testing.T) {
	spec := testSpec()
	mem := hm.NewMemory(spec)
	o, _ := mem.Alloc("hot", "t0", 32*4096, hm.PM)
	// Only one page of the region is observably hot; region-granular
	// management migrates the whole region anyway.
	o.IntervalAccess[3] = 100000
	d := NewDaemon(DaemonConfig{SampleEvents: 8192, RegionPages: 16, Seed: 10})
	d.Tick(0.1, mem, nil)
	if o.DRAMPages() < 16 {
		t.Fatalf("region-granular daemon moved %d pages, want the whole 16-page region", o.DRAMPages())
	}
	if o.Loc[3] != hm.DRAM || o.Loc[0] != hm.DRAM {
		t.Fatal("the hot page's region should be resident")
	}
}

func TestWarpXPMFallbackWithoutWorks(t *testing.T) {
	// Setup-time placement has no works: objects rank by size.
	spec := testSpec()
	spec.Tiers[hm.DRAM].CapacityBytes = 16 * 4096
	mem := hm.NewMemory(spec)
	small, _ := mem.Alloc("small", "t0", 8*4096, hm.PM)
	big, _ := mem.Alloc("big", "t0", 64*4096, hm.PM)
	w := NewWarpXPM(spec.LLCBytes, 2)
	if err := w.BeforeInstance(context.Background(), 0, mem, nil); err != nil {
		t.Fatal(err)
	}
	// Without density data nothing ranks, so nothing migrates; the
	// policy must at least not corrupt state.
	if err := mem.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	_ = small
	_ = big
}

func TestSpartaSizeFallbackAndEviction(t *testing.T) {
	spec := testSpec()
	spec.Tiers[hm.DRAM].CapacityBytes = 16 * 4096
	mem := hm.NewMemory(spec)
	// A stale non-candidate squats in DRAM.
	stale, _ := mem.Alloc("other", "t0", 8*4096, hm.DRAM)
	bSmall, _ := mem.Alloc("app/B1", "t0", 8*4096, hm.PM)
	bBig, _ := mem.Alloc("app/B2", "t1", 32*4096, hm.PM)
	s := &Sparta{Priority: []string{"/B"}}
	if err := s.BeforeInstance(context.Background(), 0, mem, nil); err != nil {
		t.Fatal(err)
	}
	// Without works, smaller operands rank first (denser reuse).
	if bSmall.DRAMPages() != uint64(bSmall.NumPages()) {
		t.Fatalf("small operand should be fully placed, got %d", bSmall.DRAMPages())
	}
	if stale.DRAMPages() != 0 {
		t.Fatalf("stale non-candidate should be evicted, has %d", stale.DRAMPages())
	}
	if bBig.DRAMPages() == 0 {
		t.Fatal("leftover capacity should spill into the big operand")
	}
	if err := mem.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// sortedUnit is the unit the daemon once sorted in place, with the
// comparators it sorted candidates and victims by: the reference for
// rankUnits.
type sortedUnit struct {
	obj     *hm.Object
	start   int
	density float64
}

func sortCandsReference(us []sortedUnit) {
	sort.Slice(us, func(a, b int) bool {
		if us[a].density != us[b].density {
			return us[a].density > us[b].density
		}
		if us[a].obj.ID != us[b].obj.ID {
			return us[a].obj.ID < us[b].obj.ID
		}
		return us[a].start < us[b].start
	})
}

func sortVictimsReference(victims []sortedUnit) {
	sort.Slice(victims, func(a, b int) bool {
		if victims[a].density != victims[b].density {
			return victims[a].density < victims[b].density
		}
		if victims[a].obj.ID != victims[b].obj.ID {
			return victims[a].obj.ID < victims[b].obj.ID
		}
		return victims[a].start < victims[b].start
	})
}

// rankUnits must order units exactly as the pointer-holding sorts did.
// The units are drawn so that densities tie often (including -0 against
// +0, which compare equal), object IDs tie often, and only the start page
// separates the rest; each (object, start) appears once, as in a tick.
func TestRankUnitsMatchesSortReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	densities := []float64{negZero, 0, 0.25, 1, 1, 3.5, math.Inf(1)}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		objs := make([]*hm.Object, 1+rng.Intn(6))
		for i := range objs {
			objs[i] = &hm.Object{ID: i}
		}
		var units []sortedUnit
		for _, o := range objs {
			for start := 0; start < 64; start += 1 + rng.Intn(4) {
				if rng.Intn(3) == 0 {
					continue
				}
				d := densities[rng.Intn(len(densities))]
				if rng.Intn(4) == 0 {
					d = rng.Float64()
				}
				units = append(units, sortedUnit{obj: o, start: start, density: d})
			}
		}
		rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })

		for _, hottestFirst := range []bool{true, false} {
			keys := make([]rankKey, len(units))
			for i, u := range units {
				keys[i] = rankKey{u.density, u.obj.ID, u.start, i}
			}
			rankUnits(keys, hottestFirst)
			ref := slices.Clone(units)
			if hottestFirst {
				sortCandsReference(ref)
			} else {
				sortVictimsReference(ref)
			}
			for i, k := range keys {
				if got := units[k.unit]; got.obj != ref[i].obj || got.start != ref[i].start {
					t.Fatalf("seed %d hottestFirst=%v: position %d holds %+v, reference %+v",
						seed, hottestFirst, i, got, ref[i])
				}
			}
		}
	}
}
