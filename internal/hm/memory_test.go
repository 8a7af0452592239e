package hm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"merchandiser/internal/access"
)

func testSpec() SystemSpec {
	s := DefaultSpec()
	// Small memory for fast tests: 1 MB DRAM, 8 MB PM, 4 KB pages, and a
	// 64 KB LLC so that test-sized working sets actually reach main memory.
	s.Tiers[DRAM].CapacityBytes = 1 << 20
	s.Tiers[PM].CapacityBytes = 8 << 20
	s.LLCBytes = 64 << 10
	return s
}

func TestAllocPlacesAllPages(t *testing.T) {
	m := NewMemory(testSpec())
	o, err := m.Alloc("A", "t0", 10*4096+1, PM)
	if err != nil {
		t.Fatal(err)
	}
	if o.NumPages() != 11 {
		t.Fatalf("pages = %d, want 11 (rounded up)", o.NumPages())
	}
	if m.UsedPages(PM) != 11 || m.UsedPages(DRAM) != 0 {
		t.Fatalf("usage = %d/%d", m.UsedPages(DRAM), m.UsedPages(PM))
	}
	if o.DRAMFraction() != 0 {
		t.Fatalf("DRAMFraction = %v", o.DRAMFraction())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocRejectsOverCapacity(t *testing.T) {
	m := NewMemory(testSpec())
	if _, err := m.Alloc("big", "", 2<<20, DRAM); err == nil {
		t.Fatal("2 MB object should not fit in 1 MB DRAM")
	}
	if _, err := m.Alloc("empty", "", 0, PM); err == nil {
		t.Fatal("zero-size object should be rejected")
	}
	// Exactly full is fine; one page more is not.
	if _, err := m.Alloc("fit", "", 1<<20, DRAM); err != nil {
		t.Fatalf("exactly-fitting object rejected: %v", err)
	}
	if _, err := m.Alloc("one", "", 4096, DRAM); err == nil {
		t.Fatal("allocation into a full tier should fail")
	}
}

func TestMigrate(t *testing.T) {
	m := NewMemory(testSpec())
	o, _ := m.Alloc("A", "t0", 4*4096, PM)
	if err := m.Migrate(o, 2, DRAM); err != nil {
		t.Fatal(err)
	}
	if o.Loc[2] != DRAM || o.DRAMPages() != 1 {
		t.Fatalf("page 2 not migrated: loc=%v dram=%d", o.Loc[2], o.DRAMPages())
	}
	if m.UsedPages(DRAM) != 1 || m.UsedPages(PM) != 3 {
		t.Fatalf("usage after migrate = %d/%d", m.UsedPages(DRAM), m.UsedPages(PM))
	}
	if m.MigratedToDRAM != 1 {
		t.Fatalf("MigratedToDRAM = %d", m.MigratedToDRAM)
	}
	// No-op migration.
	if err := m.Migrate(o, 2, DRAM); err != nil {
		t.Fatal(err)
	}
	if m.MigratedToDRAM != 1 {
		t.Fatal("no-op migration should not count")
	}
	// Back to PM.
	if err := m.Migrate(o, 2, PM); err != nil {
		t.Fatal(err)
	}
	if m.MigratedToPM != 1 || o.DRAMPages() != 0 {
		t.Fatalf("migrate back failed: toPM=%d dram=%d", m.MigratedToPM, o.DRAMPages())
	}
	if err := m.Migrate(o, 99, DRAM); err == nil {
		t.Fatal("out-of-range page should error")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateRespectsCapacity(t *testing.T) {
	s := testSpec()
	s.Tiers[DRAM].CapacityBytes = 2 * 4096 // 2 DRAM pages
	m := NewMemory(s)
	o, _ := m.Alloc("A", "", 4*4096, PM)
	if err := m.Migrate(o, 0, DRAM); err != nil {
		t.Fatal(err)
	}
	if err := m.Migrate(o, 1, DRAM); err != nil {
		t.Fatal(err)
	}
	if err := m.Migrate(o, 2, DRAM); err == nil {
		t.Fatal("migration into full DRAM should fail")
	}
	if m.FreePages(DRAM) != 0 {
		t.Fatalf("FreePages = %d, want 0", m.FreePages(DRAM))
	}
}

func TestInvariantsUnderRandomMigrationsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := NewMemory(testSpec())
		var objs []*Object
		for i := 0; i < 4; i++ {
			o, err := m.Alloc("o", "", uint64(1+r.Intn(100))*4096, PM)
			if err != nil {
				return false
			}
			objs = append(objs, o)
		}
		for i := 0; i < 300; i++ {
			o := objs[r.Intn(len(objs))]
			to := TierID(r.Intn(2))
			_ = m.Migrate(o, r.Intn(o.NumPages()), to) // may fail on full tier; fine
		}
		return m.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestResetIntervalCounters(t *testing.T) {
	m := NewMemory(testSpec())
	o, _ := m.Alloc("A", "", 2*4096, PM)
	o.IntervalAccess[0] = 5
	o.PageAccess[0] = 5
	m.ResetIntervalCounters()
	if o.IntervalAccess[0] != 0 {
		t.Fatal("interval counter should reset")
	}
	if o.PageAccess[0] != 5 {
		t.Fatal("cumulative counter must survive reset")
	}
}

func TestHomogeneousSpec(t *testing.T) {
	base := DefaultSpec()
	pmOnly := HomogeneousSpec(base, PM)
	if pmOnly.Tiers[DRAM].ReadLatencyNs != base.Tiers[PM].ReadLatencyNs {
		t.Fatal("PM-only spec should slow DRAM down to PM speed")
	}
	if pmOnly.Tiers[DRAM].CapacityBytes <= base.Tiers[DRAM].CapacityBytes {
		t.Fatal("homogeneous spec should expand capacity")
	}
	dramOnly := HomogeneousSpec(base, DRAM)
	if dramOnly.Tiers[PM].BandwidthGBs != base.Tiers[DRAM].BandwidthGBs {
		t.Fatal("DRAM-only spec should speed PM up to DRAM speed")
	}
}

func TestSpecHelpers(t *testing.T) {
	s := DefaultSpec()
	if got := s.CapacityPages(DRAM); got != (192<<20)/4096 {
		t.Fatalf("CapacityPages = %d", got)
	}
	// Latency interpolates between read and write latency.
	lat0 := s.Latency(PM, 0)
	lat1 := s.Latency(PM, 1)
	half := s.Latency(PM, 0.5)
	if lat0 != s.Tiers[PM].ReadLatencyNs || lat1 != s.Tiers[PM].WriteLatencyNs {
		t.Fatalf("latency endpoints wrong: %v %v", lat0, lat1)
	}
	if half <= lat0 || half >= lat1 {
		t.Fatalf("mixed latency %v not between %v and %v", half, lat0, lat1)
	}
	if s.BytesPerSecond(DRAM) != 180e9 {
		t.Fatalf("BytesPerSecond = %v", s.BytesPerSecond(DRAM))
	}
	if DRAM.String() != "DRAM" || PM.String() != "PM" || TierID(5).String() != "Tier(?)" {
		t.Fatal("tier names wrong")
	}
}

// pageWeights must hand out access.PageWeights' weights, computed once
// per (skew, page count, seed) and shared while the key repeats.
func TestPageWeightsMemo(t *testing.T) {
	m := NewMemory(testSpec())
	zipf := access.Pattern{Kind: access.Random, ElemSize: 8, Skew: 0.5}
	uniform := access.Pattern{Kind: access.Random, ElemSize: 8}
	nan := access.Pattern{Kind: access.Random, ElemSize: 8, Skew: math.NaN()}
	type call struct {
		p     access.Pattern
		pages int
		seed  int64
	}
	calls := []call{
		{zipf, 100, 3}, {zipf, 100, 3}, {zipf, 101, 3}, {zipf, 100, 4},
		{uniform, 100, 3}, {zipf, 100, 3}, {nan, 10, 1}, {nan, 10, 1},
	}
	first := map[call]*float64{}
	for _, c := range calls {
		w := m.pageWeights(c.p, c.pages, c.seed)
		want := access.PageWeights(c.p, c.pages, c.seed)
		if len(w) != len(want) {
			t.Fatalf("%+v: %d weights, want %d", c, len(w), len(want))
		}
		for i := range w {
			if math.Float64bits(w[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%+v: weight %d is %v, PageWeights gives %v", c, i, w[i], want[i])
			}
		}
		key := call{access.Pattern{Skew: c.p.Skew}, c.pages, c.seed}
		if math.IsNaN(c.p.Skew) {
			key.p.Skew = -1 // NaN never equals itself as a map key
		}
		if p, ok := first[key]; ok && p != &w[0] {
			t.Fatalf("%+v: weights computed again for a repeated key", c)
		}
		first[key] = &w[0]
	}
	if len(m.weights) != 5 {
		t.Fatalf("%d memoized weight sets, want 5 distinct keys", len(m.weights))
	}
}
