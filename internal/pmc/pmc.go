// Package pmc synthesizes hardware performance-monitor counters (PMCs)
// from the simulator's task counters, standing in for the real counters
// the paper collects with PAPI on Cascade Lake.
//
// Section 5.1 selects 8 events as workload characteristics for the
// correlation function f(·): LLC_MPKI, IPC, PRF_Miss, MEM_WCY, L2_LD_Miss,
// BR_MSP, VEC_INS and L3_LD_Miss (in decreasing Gini importance). This
// package exposes those eight plus a wider set, so the feature-selection
// study (Figure 7) can eliminate events one at a time exactly as the paper
// does. It also provides the PEBS/IBS-style sampled attribution of memory
// accesses to data objects used by the online refinement of α (Section 4).
package pmc

import (
	"math"
	"math/rand"

	"merchandiser/internal/hm"
)

// Event names, ordered by the paper's reported Gini importance for the
// first eight. The remaining events are the "all collectable events" pool
// used during model selection.
const (
	LLCMPKI  = "LLC_MPKI"   // last-level-cache misses per kilo-instruction
	IPC      = "IPC"        // instructions per cycle
	PRFMiss  = "PRF_Miss"   // useless-prefetch ratio
	MemWCY   = "MEM_WCY"    // memory write cycles per kilo-instruction
	L2LDMiss = "L2_LD_Miss" // L2 load misses per kilo-instruction
	BRMSP    = "BR_MSP"     // branch misprediction ratio
	VECIns   = "VEC_INS"    // vector-instruction fraction
	L3LDMiss = "L3_LD_Miss" // L3 load miss ratio
	L1LDMiss = "L1_LD_Miss"
	TLBMiss  = "TLB_Miss"
	StallCYC = "STALL_CYC"
	MemIns   = "MEM_INS"
	FPIns    = "FP_INS"
	PageFLT  = "PAGE_FLT"
	UopsRet  = "UOPS_RET"
	CtxSW    = "CTX_SW"
)

// SelectedEvents are the paper's final 8 workload characteristics, in
// decreasing importance.
var SelectedEvents = []string{
	LLCMPKI, IPC, PRFMiss, MemWCY, L2LDMiss, BRMSP, VECIns, L3LDMiss,
}

// AllEvents is the full collectable set (selected events first).
var AllEvents = []string{
	LLCMPKI, IPC, PRFMiss, MemWCY, L2LDMiss, BRMSP, VECIns, L3LDMiss,
	L1LDMiss, TLBMiss, StallCYC, MemIns, FPIns, PageFLT, UopsRet, CtxSW,
}

// instructionsPerAccess is the average number of retired instructions per
// program-level element access (address generation, load/store, ALU op).
const instructionsPerAccess = 4

// baseIPC is the core's issue rate when not memory-stalled.
const baseIPC = 2.0

// Counters is a named event vector.
type Counters struct {
	Task   string
	Values map[string]float64
}

// Vector projects the counters onto the given event ordering; missing
// events read 0.
func (c Counters) Vector(events []string) []float64 {
	return c.VectorInto(make([]float64, 0, len(events)), events)
}

// VectorInto appends the projection onto dst and returns the extended
// slice — the allocation-free form for hot paths that reuse a scratch
// buffer across calls (pass dst[:0] to overwrite it).
func (c Counters) VectorInto(dst []float64, events []string) []float64 {
	for _, e := range events {
		dst = append(dst, c.Values[e])
	}
	return dst
}

// Collect synthesizes the full event set from one task's simulation
// counters. spec provides the clock for cycle-denominated events.
//
// Every event is a deterministic function of the same microarchitectural
// quantities it measures on real hardware: cache misses, pipeline
// utilization, prefetcher success, pattern regularity. That is precisely
// what the correlation function needs the events to summarize.
func Collect(spec hm.SystemSpec, tc hm.TaskCounters) Counters {
	freq := spec.CoreGHz * 1e9
	instructions := tc.ComputeSeconds*freq*baseIPC + tc.ProgramAccesses*instructionsPerAccess
	if instructions <= 0 {
		instructions = 1
	}
	cycles := tc.FinishTime * freq
	if cycles <= 0 {
		cycles = 1
	}
	kiloInstr := instructions / 1000

	v := map[string]float64{}
	v[LLCMPKI] = tc.MainAccesses / kiloInstr
	v[IPC] = instructions / cycles
	v[PRFMiss] = tc.AvgPrefetchMiss
	v[MemWCY] = tc.WriteFraction * tc.MainAccesses / kiloInstr * 4 // write-queue occupancy proxy
	v[L2LDMiss] = tc.MainAccesses * 1.35 / kiloInstr               // some L2 misses hit in L3
	v[BRMSP] = 0.01 + 0.08*(1-tc.RegularFraction)
	v[VECIns] = 0.05 + 0.45*tc.RegularFraction
	loadAccesses := tc.ProgramAccesses * (1 - tc.WriteFraction)
	if loadAccesses <= 0 {
		loadAccesses = 1
	}
	v[L3LDMiss] = math.Min(1, tc.MainAccesses*(1-tc.WriteFraction)/loadAccesses)

	// Wider pool.
	v[L1LDMiss] = math.Min(1, v[L3LDMiss]*3+0.02)
	v[TLBMiss] = 0.001 + 0.02*(1-tc.RegularFraction)
	v[StallCYC] = tc.StallSeconds * freq / cycles
	v[MemIns] = tc.ProgramAccesses / instructions
	v[FPIns] = 0.1 + 0.3*math.Min(1, tc.ComputeSeconds/math.Max(tc.FinishTime, 1e-9))
	v[PageFLT] = tc.MemBytes / float64(spec.PageSize) * 1e-6
	v[UopsRet] = instructions * 1.2
	v[CtxSW] = 0 // pinned HPC tasks do not context-switch

	// Real counters carry measurement noise (multiplexing, non-determinism
	// of speculative execution). A deterministic per-(task, event) jitter
	// of up to ±8% models it — one reason a single event cannot carry the
	// correlation function and the paper selects eight (Figure 7).
	for name := range v {
		h := uint64(1469598103934665603)
		for _, c := range tc.Name + "\x00" + name {
			h ^= uint64(c)
			h *= 1099511628211
		}
		v[name] *= 1 + 0.08*(float64(h%2001)/1000-1)
	}

	return Counters{Task: tc.Name, Values: v}
}

// Sampler models PEBS (Intel) / IBS (AMD) sampled attribution of memory
// accesses to data objects: only one in Rate accesses is observed, and the
// per-object estimate is the observed count scaled back up, so small
// counts carry large relative error — the profiling-error mechanism the
// paper's runtime refinement of α must tolerate.
type Sampler struct {
	// Rate is the sampling period (one sample per Rate accesses);
	// PEBS defaults to the order of 10k.
	Rate float64
	rng  *rand.Rand
}

// NewSampler builds a sampler with the given period and seed.
func NewSampler(rate float64, seed int64) *Sampler {
	if rate < 1 {
		rate = 1
	}
	return &Sampler{Rate: rate, rng: rand.New(rand.NewSource(seed))}
}

// Estimate returns the sampled estimate of trueCount accesses: the number
// of Poisson(trueCount/Rate) observed samples scaled back by Rate.
func (s *Sampler) Estimate(trueCount float64) float64 {
	if trueCount <= 0 {
		return 0
	}
	lambda := trueCount / s.Rate
	return float64(s.poisson(lambda)) * s.Rate
}

// poisson draws a Poisson variate; for large lambda it uses the normal
// approximation to stay O(1).
func (s *Sampler) poisson(lambda float64) int64 {
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
	// Knuth's method for small lambda.
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
