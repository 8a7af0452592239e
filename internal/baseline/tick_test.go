package baseline

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"merchandiser/internal/hm"
	"merchandiser/internal/placement"
)

// referenceTick is Daemon.Tick as it was written before units shared a
// page buffer and before a NoEvict daemon facing a full DRAM stopped
// sorting: every unit holds its own page slice, the gate is asked once
// per candidate, and every tick sorts. Tick must reproduce it exactly.
func referenceTick(d *Daemon, now float64, mem *hm.Memory, tasks []hm.TaskStatus) {
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

	// Units of management: regions of RegionPages pages (Merchandiser
	// overrides to single pages). A region's candidacy is judged by the
	// per-page score density of its PM-resident pages; eviction by the
	// density of DRAM-resident pages. Victims are read only on the
	// eviction branch, which a NoEvict daemon never reaches, so it does
	// not collect them.
	type unit struct {
		obj   *hm.Object
		pages []int
	}
	rp := d.cfg.RegionPages
	var cands, victims []unit
	var candKeys, victimKeys []rankKey
	for obj, sc := range d.scores {
		n := obj.NumPages()
		for start := 0; start < n; start += rp {
			end := start + rp
			if end > n {
				end = n
			}
			var pmPages, dramPages []int
			var pmScore, dramScore float64
			for p := start; p < end; p++ {
				if obj.Loc[p] == hm.PM {
					pmPages = append(pmPages, p)
					pmScore += sc[p]
				} else if !d.NoEvict {
					dramPages = append(dramPages, p)
					dramScore += sc[p]
				}
			}
			if len(pmPages) > 0 && pmScore > 0 {
				candKeys = append(candKeys, rankKey{pmScore / float64(len(pmPages)), obj.ID, start, len(cands)})
				cands = append(cands, unit{obj, pmPages})
			}
			if len(dramPages) > 0 {
				victimKeys = append(victimKeys, rankKey{dramScore / float64(len(dramPages)), obj.ID, start, len(victims)})
				victims = append(victims, unit{obj, dramPages})
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
			n := obj.NumPages()
			for start := 0; start < n; start += rp {
				end := start + rp
				if end > n {
					end = n
				}
				var dramPages []int
				for p := start; p < end; p++ {
					if obj.Loc[p] == hm.DRAM {
						dramPages = append(dramPages, p)
					}
				}
				if len(dramPages) > 0 {
					victimKeys = append(victimKeys, rankKey{0, obj.ID, start, len(victims)})
					victims = append(victims, unit{obj, dramPages})
				}
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
		if d.Gate != nil && !d.Gate.Allows(c.obj) {
			d.GateBlocked += uint64(len(c.pages))
			continue
		}
		stop := false
		for _, p := range c.pages {
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
					for _, vp := range v.pages {
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
			if err := mem.Migrate(c.obj, p, hm.DRAM); err != nil {
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

// tickTasks are the owners of tickMemory's objects.
var tickTasks = []string{"t0", "t1", "t2", "t3", "t4"}

// tickMemory builds a seeded random memory with dramPages pages in DRAM
// (capacity 512): objects of 1 to 300 pages owned by tickTasks, one of
// them shared between two tasks through the gate's Accessors, with a
// random subset of pages placed in DRAM.
func tickMemory(seed int64, dramPages int) *hm.Memory {
	spec := testSpec()
	spec.Tiers[hm.DRAM].CapacityBytes = 512 * 4096
	spec.Tiers[hm.PM].CapacityBytes = 16384 * 4096
	mem := hm.NewMemory(spec)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 14; i++ {
		pages := 1 + rng.Intn(300)
		if _, err := mem.Alloc(fmt.Sprintf("obj%02d", i), tickTasks[rng.Intn(len(tickTasks))], uint64(pages)*4096, hm.PM); err != nil {
			panic(err)
		}
	}
	objs := mem.Objects()
	for int(mem.UsedPages(hm.DRAM)) < dramPages {
		o := objs[rng.Intn(len(objs))]
		if err := mem.Migrate(o, rng.Intn(o.NumPages()), hm.DRAM); err != nil {
			panic(err)
		}
	}
	return mem
}

// tickGate gives every task an access-ratio goal of one half, so a task
// reporting a ratio of 1 is blocked and one reporting 0 allowed; obj03
// is allowed while t1 or t3 is.
func tickGate() *placement.Gate {
	g := &placement.Gate{
		GoalRatio: map[string]float64{},
		Achieved:  map[string]float64{},
		Accessors: map[string][]string{"obj03": {"t1", "t3"}},
	}
	for _, t := range tickTasks {
		g.GoalRatio[t] = 0.5
	}
	return g
}

// TestTickMatchesReference runs Tick and referenceTick side by side, each
// with its own daemon on its own copy of a seeded random memory, for
// several ticks of fresh random heat: DRAM starting full, with one free
// page and empty; no gate and a gate allowing a random subset of tasks
// (sometimes none); NoEvict on and off; page and 64-page regions. After
// every tick both daemons must agree on every counter and both memories
// on every page's tier.
func TestTickMatchesReference(t *testing.T) {
	const capacity = 512
	fastBlocked := 0
	for _, free := range []int{0, 1, capacity} {
		for _, gated := range []bool{false, true} {
			for _, noEvict := range []bool{true, false} {
				for _, rp := range []int{1, 64} {
					for seed := int64(1); seed <= 3; seed++ {
						name := fmt.Sprintf("free%d-gated%v-noevict%v-region%d-seed%d", free, gated, noEvict, rp, seed)
						fastBlocked += runTickPair(t, name, seed, capacity-free, gated, noEvict, rp)
					}
				}
			}
		}
	}
	if fastBlocked == 0 {
		t.Fatal("no full-DRAM NoEvict tick counted a blocked page: the test exercises nothing")
	}
}

// runTickPair runs one side-by-side case and returns how many of its
// ticks took Tick's no-sort path and counted blocked pages.
func runTickPair(t *testing.T, name string, seed int64, dramPages int, gated, noEvict bool, rp int) int {
	cfg := DaemonConfig{SampleEvents: 2048, MaxMigrationsPerTick: 100, RegionPages: rp, Seed: seed}
	got, want := NewDaemon(cfg), NewDaemon(cfg)
	got.NoEvict, want.NoEvict = noEvict, noEvict
	if gated {
		got.Gate, want.Gate = tickGate(), tickGate()
	}
	gotMem, wantMem := tickMemory(seed, dramPages), tickMemory(seed, dramPages)
	rng := rand.New(rand.NewSource(seed * 101))
	heats := []float64{0, 0, 1, 10, 100}
	fastBlocked := 0
	for tick := 0; tick < 6; tick++ {
		for i, o := range gotMem.Objects() {
			for p := range o.IntervalAccess {
				h := heats[rng.Intn(len(heats))]
				if rng.Intn(4) == 0 {
					h = rng.Float64() * 100
				}
				o.IntervalAccess[p] = h
				wantMem.Objects()[i].IntervalAccess[p] = h
			}
		}
		var tasks []hm.TaskStatus
		allBlocked := rng.Intn(4) == 0
		for _, task := range tickTasks {
			ratio := 0.0
			if allBlocked || rng.Intn(2) == 0 {
				ratio = 1
			}
			tasks = append(tasks, hm.TaskStatus{Name: task, RDRAM: ratio})
		}
		fast := noEvict && gotMem.FreePages(hm.DRAM) == 0
		blockedBefore := got.GateBlocked
		got.Tick(float64(tick), gotMem, tasks)
		referenceTick(want, float64(tick), wantMem, tasks)
		if fast && got.GateBlocked > blockedBefore {
			fastBlocked++
		}
		if got.Migrations != want.Migrations || got.GateBlocked != want.GateBlocked {
			t.Fatalf("%s tick %d: migrations %d, gate-blocked %d; reference %d and %d",
				name, tick, got.Migrations, got.GateBlocked, want.Migrations, want.GateBlocked)
		}
		if !maps.Equal(got.MigrationsByOwner, want.MigrationsByOwner) {
			t.Fatalf("%s tick %d: migrations by owner %v, reference %v", name, tick, got.MigrationsByOwner, want.MigrationsByOwner)
		}
		for i, o := range gotMem.Objects() {
			if !slices.Equal(o.Loc, wantMem.Objects()[i].Loc) {
				t.Fatalf("%s tick %d: %s's pages are placed differently from the reference's", name, tick, o.Name)
			}
		}
	}
	return fastBlocked
}

// BenchmarkDaemonTick times one tick of two daemons on a 64 Ki-page
// memory whose 16 Ki DRAM pages are full: Merchandiser's (page regions,
// NoEvict, a gate blocking two of five tasks), which moves nothing, and
// MemoryOptimizer's (64-page regions, evicting, ungated).
func BenchmarkDaemonTick(b *testing.B) {
	for _, bc := range []struct {
		name  string
		merch bool
	}{{"merchandiser-full-dram", true}, {"memory-optimizer", false}} {
		b.Run(bc.name, func(b *testing.B) {
			spec := testSpec()
			spec.Tiers[hm.DRAM].CapacityBytes = 16384 * 4096
			spec.Tiers[hm.PM].CapacityBytes = 65536 * 4096
			mem := hm.NewMemory(spec)
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 16; i++ {
				tier := hm.PM
				if i%4 == 0 {
					tier = hm.DRAM
				}
				o, err := mem.Alloc(fmt.Sprintf("obj%02d", i), tickTasks[i%len(tickTasks)], 4096*4096, tier)
				if err != nil {
					b.Fatal(err)
				}
				for p := range o.IntervalAccess {
					o.IntervalAccess[p] = rng.Float64() * 100
				}
			}
			d := NewDaemon(DaemonConfig{Seed: 1})
			var tasks []hm.TaskStatus
			if bc.merch {
				d = NewDaemon(DaemonConfig{RegionPages: 1, Seed: 1})
				d.NoEvict, d.Gate = true, tickGate()
				for i, task := range tickTasks {
					tasks = append(tasks, hm.TaskStatus{Name: task, RDRAM: float64(i % 2)})
				}
			}
			// Warm the scores the way a run does, a few intervals deep.
			for i := 0; i < 8; i++ {
				d.Tick(float64(i), mem, tasks)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Tick(float64(i), mem, tasks)
			}
		})
	}
}
