package pmc

import (
	"math"
	"testing"

	"merchandiser/internal/hm"
)

func memBoundCounters() hm.TaskCounters {
	return hm.TaskCounters{
		Name:            "membound",
		FinishTime:      2.0,
		ComputeSeconds:  0.2,
		ProgramAccesses: 1e9,
		MainAccesses:    5e8,
		DRAMAccesses:    1e8,
		PMAccesses:      4e8,
		MemBytes:        5e8 * 64,
		AvgMLP:          2.2,
		AvgPrefetchMiss: 0.85,
		RegularFraction: 0.1,
		WriteFraction:   0.2,
		StallSeconds:    1.5,
	}
}

func computeBoundCounters() hm.TaskCounters {
	return hm.TaskCounters{
		Name:            "cpubound",
		FinishTime:      2.0,
		ComputeSeconds:  1.9,
		ProgramAccesses: 1e8,
		MainAccesses:    1e6,
		DRAMAccesses:    1e6,
		MemBytes:        1e6 * 64,
		AvgMLP:          9,
		AvgPrefetchMiss: 0.05,
		RegularFraction: 0.95,
		WriteFraction:   0.1,
		StallSeconds:    0.05,
	}
}

func TestCollectDiscriminatesBoundedness(t *testing.T) {
	spec := hm.DefaultSpec()
	mem := Collect(spec, memBoundCounters())
	cpu := Collect(spec, computeBoundCounters())

	if mem.Values[LLCMPKI] <= cpu.Values[LLCMPKI] {
		t.Fatalf("memory-bound LLC_MPKI (%v) should exceed compute-bound (%v)",
			mem.Values[LLCMPKI], cpu.Values[LLCMPKI])
	}
	if mem.Values[IPC] >= cpu.Values[IPC] {
		t.Fatalf("memory-bound IPC (%v) should be below compute-bound (%v)",
			mem.Values[IPC], cpu.Values[IPC])
	}
	if mem.Values[PRFMiss] <= cpu.Values[PRFMiss] {
		t.Fatal("irregular task should have worse prefetch")
	}
	if mem.Values[BRMSP] <= cpu.Values[BRMSP] {
		t.Fatal("irregular task should mispredict more")
	}
	if mem.Values[VECIns] >= cpu.Values[VECIns] {
		t.Fatal("regular task should vectorize more")
	}
	if mem.Values[StallCYC] <= cpu.Values[StallCYC] {
		t.Fatal("memory-bound task should stall more")
	}
}

func TestCollectBounds(t *testing.T) {
	spec := hm.DefaultSpec()
	for _, tc := range []hm.TaskCounters{memBoundCounters(), computeBoundCounters(), {Name: "empty"}} {
		c := Collect(spec, tc)
		for _, e := range AllEvents {
			v, ok := c.Values[e]
			if !ok {
				t.Fatalf("event %s missing for %s", e, tc.Name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("event %s = %v for %s", e, v, tc.Name)
			}
		}
		for _, e := range []string{PRFMiss, BRMSP, L3LDMiss, L1LDMiss, StallCYC} {
			if c.Values[e] < 0 || c.Values[e] > 1.0001 {
				t.Fatalf("ratio event %s = %v out of [0,1] for %s", e, c.Values[e], tc.Name)
			}
		}
	}
}

func TestVectorProjection(t *testing.T) {
	c := Counters{Values: map[string]float64{IPC: 1.5, LLCMPKI: 20}}
	v := c.Vector([]string{LLCMPKI, IPC, "NOPE"})
	if v[0] != 20 || v[1] != 1.5 || v[2] != 0 {
		t.Fatalf("Vector = %v", v)
	}
	if len(SelectedEvents) != 8 {
		t.Fatalf("paper selects 8 events, got %d", len(SelectedEvents))
	}
	// Selected events are a prefix of AllEvents and unique.
	seen := map[string]bool{}
	for i, e := range SelectedEvents {
		if AllEvents[i] != e {
			t.Fatalf("AllEvents[%d] = %s, want %s", i, AllEvents[i], e)
		}
		if seen[e] {
			t.Fatalf("duplicate event %s", e)
		}
		seen[e] = true
	}
}

func TestSamplerUnbiasedAndNoisy(t *testing.T) {
	s := NewSampler(1000, 42)
	trueCount := 5e6
	var sum float64
	n := 200
	sawDifferent := false
	prev := -1.0
	for i := 0; i < n; i++ {
		e := s.Estimate(trueCount)
		sum += e
		if prev >= 0 && e != prev {
			sawDifferent = true
		}
		prev = e
	}
	mean := sum / float64(n)
	if math.Abs(mean-trueCount)/trueCount > 0.02 {
		t.Fatalf("sampler biased: mean %v vs true %v", mean, trueCount)
	}
	if !sawDifferent {
		t.Fatal("sampler produced identical estimates — no sampling noise")
	}
	if s.Estimate(0) != 0 {
		t.Fatal("zero count should estimate zero")
	}
}

func TestSamplerSmallCountsNoisier(t *testing.T) {
	relErr := func(trueCount float64) float64 {
		s := NewSampler(1000, 7)
		var sumSq float64
		n := 300
		for i := 0; i < n; i++ {
			d := (s.Estimate(trueCount) - trueCount) / trueCount
			sumSq += d * d
		}
		return math.Sqrt(sumSq / float64(n))
	}
	small := relErr(5e3) // ~5 expected samples
	large := relErr(5e6) // ~5000 expected samples
	if small <= large {
		t.Fatalf("small counts should be noisier: %v vs %v", small, large)
	}
}

func TestNewSamplerClampsRate(t *testing.T) {
	s := NewSampler(0, 1)
	if s.Rate != 1 {
		t.Fatalf("rate = %v, want clamped to 1", s.Rate)
	}
	// Rate 1 sampling of small counts is near-exact.
	if got := s.Estimate(50); math.Abs(got-50) > 25 {
		t.Fatalf("rate-1 estimate = %v, want near 50", got)
	}
}
