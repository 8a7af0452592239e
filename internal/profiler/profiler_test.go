package profiler

import (
	"math"
	"sort"
	"testing"

	"merchandiser/internal/hm"
)

func newMem(t *testing.T) *hm.Memory {
	t.Helper()
	s := hm.DefaultSpec()
	s.Tiers[hm.DRAM].CapacityBytes = 1 << 20
	s.Tiers[hm.PM].CapacityBytes = 8 << 20
	return hm.NewMemory(s)
}

func TestAccessBitSamplerFindsHotPages(t *testing.T) {
	mem := newMem(t)
	o, err := mem.Alloc("A", "t0", 100*4096, hm.PM)
	if err != nil {
		t.Fatal(err)
	}
	// Page 7 is 100x hotter than the rest.
	for p := 0; p < 100; p++ {
		o.IntervalAccess[p] = 10
	}
	o.IntervalAccess[7] = 1000
	s := NewAccessBitSampler(500, 1)
	est := s.SampleTier(mem, hm.PM)
	if len(est) == 0 {
		t.Fatal("no estimates")
	}
	hottest := est[0]
	for _, e := range est[1:] {
		if e.Accesses > hottest.Accesses {
			hottest = e
		}
	}
	if hottest.Page != 7 || hottest.Obj != o {
		t.Fatalf("hottest page = %v, want page 7", hottest.Page)
	}
}

func TestAccessBitSamplerBiasTowardHeavyTask(t *testing.T) {
	// Two tasks' objects; task A generates 10x the accesses. The sampler's
	// observations should concentrate on A's pages — the paper's
	// load-imbalance mechanism.
	mem := newMem(t)
	a, _ := mem.Alloc("A", "heavy", 50*4096, hm.PM)
	b, _ := mem.Alloc("B", "light", 50*4096, hm.PM)
	for p := 0; p < 50; p++ {
		a.IntervalAccess[p] = 1000
		b.IntervalAccess[p] = 100
	}
	s := NewAccessBitSampler(200, 2)
	est := s.SampleTier(mem, hm.PM)
	sort.Slice(est, func(i, j int) bool { return est[i].Accesses > est[j].Accesses })
	counts := map[string]int{}
	for _, e := range est[:20] { // top 20 hottest
		counts[e.Obj.Owner]++
	}
	if counts["heavy"] <= counts["light"] {
		t.Fatalf("sampling should favor the heavy task: %v", counts)
	}
}

func TestAccessBitSamplerNoTraffic(t *testing.T) {
	mem := newMem(t)
	if _, err := mem.Alloc("A", "", 10*4096, hm.PM); err != nil {
		t.Fatal(err)
	}
	s := NewAccessBitSampler(100, 3)
	if est := s.SampleTier(mem, hm.PM); est != nil {
		t.Fatalf("idle tier should produce no estimates, got %d", len(est))
	}
}

func TestAccessBitSamplerOnlyProfilesRequestedTier(t *testing.T) {
	mem := newMem(t)
	o, _ := mem.Alloc("A", "", 10*4096, hm.PM)
	if err := mem.Migrate(o, 0, hm.DRAM); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 10; p++ {
		o.IntervalAccess[p] = 1000
	}
	s := NewAccessBitSampler(1000, 4)
	for _, e := range s.SampleTier(mem, hm.PM) {
		if e.Page == 0 {
			t.Fatal("DRAM page should not appear in PM profile")
		}
	}
}

func TestSamplerEstimatesRoughlyUnbiased(t *testing.T) {
	mem := newMem(t)
	o, _ := mem.Alloc("A", "", 20*4096, hm.PM)
	for p := 0; p < 20; p++ {
		o.IntervalAccess[p] = 500
	}
	var sum float64
	n := 50
	for i := 0; i < n; i++ {
		s := NewAccessBitSampler(400, int64(i))
		for _, e := range s.SampleTier(mem, hm.PM) {
			sum += e.Accesses
		}
	}
	mean := sum / float64(n)
	if math.Abs(mean-10000)/10000 > 0.1 {
		t.Fatalf("total estimated accesses = %v, want ~10000", mean)
	}
}

func TestThermostatRegionScaling(t *testing.T) {
	mem := newMem(t)
	o, _ := mem.Alloc("A", "", 8*4096, hm.PM)
	// Uniform region: every page 100 accesses. One probe represents all.
	for p := 0; p < 8; p++ {
		o.IntervalAccess[p] = 100
	}
	th := NewThermostat(4, 5)
	est := th.EstimateTier(mem, hm.PM)
	if len(est) != 8 {
		t.Fatalf("estimates = %d, want 8", len(est))
	}
	for _, e := range est {
		if e.Accesses != 100 {
			t.Fatalf("uniform region estimate = %v, want 100", e.Accesses)
		}
	}
}

func TestThermostatSeparatesColdAndHotRegions(t *testing.T) {
	mem := newMem(t)
	o, _ := mem.Alloc("A", "", 8*4096, hm.PM)
	// First region cold, second hot.
	for p := 0; p < 4; p++ {
		o.IntervalAccess[p] = 1
	}
	for p := 4; p < 8; p++ {
		o.IntervalAccess[p] = 1000
	}
	th := NewThermostat(4, 6)
	est := th.EstimateTier(mem, hm.PM)
	if len(est) != 8 {
		t.Fatalf("estimates = %d, want 8", len(est))
	}
	// Each region is uniform, so whichever page is probed, every page's
	// estimate is its region's access count.
	for _, e := range est {
		if want := o.IntervalAccess[e.Page]; e.Accesses != want {
			t.Fatalf("page %d estimate = %v, want %v", e.Page, e.Accesses, want)
		}
	}
}

func TestThermostatMisattributionWithinRegion(t *testing.T) {
	// Thermostat's known failure mode: a region with one hot and many cold
	// pages gets a single estimate for all pages — either all look hot or
	// all look cold depending on the probe. Verify the estimates within a
	// region are uniform (that IS the approximation).
	mem := newMem(t)
	o, _ := mem.Alloc("A", "", 4*4096, hm.PM)
	o.IntervalAccess[0] = 1000
	for p := 1; p < 4; p++ {
		o.IntervalAccess[p] = 0
	}
	th := NewThermostat(4, 7)
	est := th.EstimateTier(mem, hm.PM)
	first := est[0].Accesses
	for _, e := range est {
		if e.Accesses != first {
			t.Fatalf("region estimates should be uniform, got %v vs %v", e.Accesses, first)
		}
	}
}

func TestThermostatSkipsOtherTier(t *testing.T) {
	mem := newMem(t)
	o, _ := mem.Alloc("A", "", 4*4096, hm.PM)
	_ = mem.Migrate(o, 1, hm.DRAM)
	th := NewThermostat(2, 8)
	est := th.EstimateTier(mem, hm.DRAM)
	if len(est) != 1 || est[0].Page != 1 {
		t.Fatalf("DRAM profile = %+v, want only page 1", est)
	}
}

func TestConstructorsClamp(t *testing.T) {
	if s := NewAccessBitSampler(0, 1); s.Events != 1 {
		t.Fatal("events should clamp to 1")
	}
	if th := NewThermostat(0, 1); th.RegionPages != 1 {
		t.Fatal("region should clamp to 1")
	}
}
