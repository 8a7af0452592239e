package hm

import (
	"context"
	"fmt"
	"math"

	"merchandiser/internal/access"
	"merchandiser/internal/cache"
	"merchandiser/internal/merr"
	"merchandiser/internal/obs"
)

// PhaseAccess is one data object's access stream within a phase: the
// pattern, the program-level element-access count for this task instance,
// and the read/write mix.
type PhaseAccess struct {
	Obj             *Object
	Pattern         access.Pattern
	ProgramAccesses float64
	WriteFrac       float64
	// Seed determines which pages of the object are hot for skewed
	// random patterns (see access.PageWeights).
	Seed int64
}

// Phase is one synchronization-free segment of a task: some compute work
// plus a set of object access streams. In the paper's terms a phase is a
// region between sync points (e.g. SpGEMM's symbolic and numeric stages,
// NWChem-TC's five execution phases).
type Phase struct {
	Name           string
	ComputeSeconds float64
	Accesses       []PhaseAccess
}

// TaskWork is the full work of one task for one task instance: an ordered
// list of phases executed back to back.
type TaskWork struct {
	Name   string
	Phases []Phase
}

// TaskStatus is the per-task view handed to a Policy at each tick.
type TaskStatus struct {
	Name     string
	Finished bool
	// RDRAM is the task's cumulative fraction of main-memory accesses
	// served from DRAM so far.
	RDRAM float64
	// IntervalAccesses is the task's main-memory accesses during the
	// last interval.
	IntervalAccesses float64
	// DoneAccesses / PlannedAccesses are the task's cumulative main-memory
	// accesses so far and the total its declared phases will issue. They
	// are engine-internal progress counters — always populated, with or
	// without an observer — so re-planning policies can measure progress
	// and drift without the obs registry.
	DoneAccesses    float64
	PlannedAccesses float64
	// StallSeconds is the cumulative time the task has spent
	// memory-stalled (not overlapped with compute).
	StallSeconds float64
	// Objects are the data objects the task touches in its current phase.
	Objects []*Object
}

// Policy is a page-placement policy driven at a fixed simulated-time
// interval. Implementations include the paper's baselines
// (MemoryOptimizer-like daemon, static placements) and Merchandiser's
// load-balance-gated migration.
type Policy interface {
	Name() string
	// Tick may inspect per-page interval access counters (via mem's
	// objects) and migrate pages. now is the simulated time in seconds.
	Tick(now float64, mem *Memory, tasks []TaskStatus)
}

// TaskCounters summarizes one task's execution for performance-event
// synthesis and experiment reporting.
type TaskCounters struct {
	Name            string
	FinishTime      float64 // seconds of simulated time until this task's last phase ended
	ComputeSeconds  float64 // compute work executed
	ProgramAccesses float64 // element-level accesses issued
	MainAccesses    float64 // line-granular main-memory accesses
	DRAMAccesses    float64
	PMAccesses      float64
	MemBytes        float64 // bytes moved to/from main memory
	// Access-weighted pattern aggregates used by internal/pmc.
	AvgMLP          float64
	AvgPrefetchMiss float64
	RegularFraction float64 // fraction of main accesses from regular patterns
	WriteFraction   float64
	StallSeconds    float64 // time the task spent memory-stalled (not overlapped)
	// ObjectAccesses attributes this task's main-memory accesses to the
	// data objects it touched (what per-thread PEBS-style sampling
	// attributes on real hardware).
	ObjectAccesses map[string]float64
}

// RDRAM returns the task's achieved DRAM-access ratio.
func (c TaskCounters) RDRAM() float64 {
	if c.MainAccesses == 0 {
		return 0
	}
	return c.DRAMAccesses / c.MainAccesses
}

// BWSample is one bandwidth telemetry point (Figure 6).
type BWSample struct {
	Time   float64           // seconds
	GBs    [NumTiers]float64 // tier bandwidth consumed, GB/s, incl. migration traffic
	MigGBs [NumTiers]float64 // migration-only portion
}

// EpochProgress is a deterministic progress snapshot recorded every
// Engine.EpochTicks policy ticks (plus one final snapshot at run end).
// Every field derives from simulated time and counters — never wall
// clock — so snapshots are byte-identical across worker counts.
type EpochProgress struct {
	Index int     // epoch number, starting at 0
	Time  float64 // simulated seconds at the epoch boundary
	// Done is each task's completed fraction of its planned main-memory
	// accesses, in task order (1 for finished tasks).
	Done []float64
	// Occupancy is pages in use per tier at the boundary, before the
	// policy's tick ran.
	Occupancy [NumTiers]uint64
}

// RunResult is the outcome of one engine run (one task-group instance
// between global synchronizations).
type RunResult struct {
	TaskTimes []float64 // per-task finish times, seconds
	Makespan  float64   // max task time = time at the sync point
	Counters  []TaskCounters
	Bandwidth []BWSample
	// Epochs holds per-epoch progress snapshots; empty unless
	// Engine.EpochTicks > 0.
	Epochs []EpochProgress
}

// Engine executes a group of tasks concurrently over a Memory, sharing
// tier bandwidth, charging migration traffic, and driving an optional
// placement policy at a fixed interval.
type Engine struct {
	Mem    *Memory
	Policy Policy

	// StepSec is the simulation time step (default 2 ms).
	StepSec float64
	// IntervalSec is the policy tick and telemetry interval (default 100 ms).
	IntervalSec float64
	// MemoryMode emulates Optane Memory Mode: the page table is ignored
	// and each access stream's DRAM-hit fraction comes from the
	// direct-mapped page-cache model over the live working set.
	MemoryMode bool
	// MaxSteps guards against runaway simulations (default 50M).
	MaxSteps int
	// EpochTicks, when > 0, records an EpochProgress snapshot into the
	// RunResult every EpochTicks policy ticks (tick-count based, so epoch
	// boundaries are deterministic). 0 disables epoch recording.
	EpochTicks int
	// Debug enables per-tick invariant checking.
	Debug bool
	// Obs, when non-nil, receives the engine's run metrics (per-tier bytes
	// moved, migrations, occupancy, steps/ticks). All values derive from
	// simulated time and seeded state, so they are deterministic for a
	// fixed workload. A nil registry costs one branch per recording site.
	Obs *obs.Registry
}

// entryState tracks one PhaseAccess's progress inside the engine.
type entryState struct {
	pa        PhaseAccess
	remaining float64   // main-memory accesses left
	total     float64   // main-memory accesses at phase start
	weights   []float64 // per-page access weights (non-sweep patterns); shared, read only
	fracDRAM  float64   // fraction of accesses hitting DRAM under current placement
	sinceTick float64   // accesses done since the last counter flush
	// sweep marks sequential patterns (stream/strided/stencil): their
	// accesses move through the object's pages in order, so a page is
	// touched during one window and then not again this phase. This
	// temporal structure is what makes migrating behind a write-once
	// stream useless on real hardware, and the engine preserves it.
	sweep bool
	// flushedAt is the progress (in accesses) up to which page counters
	// have been credited (sweep entries only).
	flushedAt float64
}

// done returns completed accesses.
func (en *entryState) done() float64 { return en.total - en.remaining }

// taskState tracks one task's progress.
type taskState struct {
	work       TaskWork
	phaseIdx   int
	entries    []entryState
	computeRem float64
	overlap    float64 // compute/memory overlap factor for the current phase
	finished   bool
	counters   TaskCounters
	// planned is the total main-memory accesses the task's declared
	// phases will issue, precomputed at run start (patterns are pure
	// functions of the declared workload, so this costs nothing at
	// steady state and exists even without an observer).
	planned float64
	// intervalAccesses counts main-memory accesses since the last policy
	// tick (exposed via TaskStatus.IntervalAccesses).
	intervalAccesses float64
}

const eps = 1e-9

// Run executes the task group to completion and returns per-task timings,
// counters and bandwidth telemetry. Cancellation is honored at policy-tick
// granularity: once ctx is done the run aborts within one IntervalSec of
// simulated progress, returning an error satisfying both
// errors.Is(err, merr.ErrCanceled) and errors.Is(err, context.Canceled).
// A nil ctx behaves like context.Background().
func (e *Engine) Run(ctx context.Context, tasks []TaskWork) (*RunResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(tasks) == 0 {
		return nil, merr.Errorf(merr.ErrBadApp, "hm: no tasks to run")
	}
	if err := e.Mem.Spec.Validate(); err != nil {
		return nil, err
	}
	if err := merr.FromContext(ctx, "hm: run canceled before start"); err != nil {
		return nil, err
	}
	step := e.StepSec
	if step <= 0 {
		step = 0.002
	}
	interval := e.IntervalSec
	if interval <= 0 {
		interval = 0.1
	}
	maxSteps := e.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 50_000_000
	}

	states := make([]*taskState, len(tasks))
	for i, tw := range tasks {
		st := &taskState{work: tw, phaseIdx: -1}
		st.counters.Name = tw.Name
		for _, ph := range tw.Phases {
			for _, pa := range ph.Accesses {
				if pa.Obj == nil {
					continue // surfaces as an error when the phase starts
				}
				st.planned += pa.Pattern.MainMemoryAccesses(pa.ProgramAccesses, float64(pa.Obj.Bytes), e.Mem.Spec.LLCBytes)
			}
		}
		states[i] = st
		if err := e.advancePhase(st); err != nil {
			return nil, err
		}
	}

	res := &RunResult{
		TaskTimes: make([]float64, len(tasks)),
		Counters:  make([]TaskCounters, len(tasks)),
	}

	// Engine metrics: resolved once so the simulation loop pays a nil
	// branch per tick, not a map lookup. Tier byte counters are flushed at
	// tick granularity (the telemetry interval), never per step.
	var (
		obsBytes    [NumTiers]*obs.Counter
		obsMigBytes [NumTiers]*obs.Counter
		obsOcc      [NumTiers]*obs.Gauge
		obsTicks    = e.Obs.Counter("hm.ticks")
		obsSteps    = e.Obs.Counter("hm.steps")
	)
	if e.Obs != nil {
		obsBytes[DRAM] = e.Obs.Counter("hm.bytes.dram")
		obsBytes[PM] = e.Obs.Counter("hm.bytes.pm")
		obsMigBytes[DRAM] = e.Obs.Counter("hm.bytes.migration.dram")
		obsMigBytes[PM] = e.Obs.Counter("hm.bytes.migration.pm")
		obsOcc[DRAM] = e.Obs.Gauge("hm.occupancy.dram_pages")
		obsOcc[PM] = e.Obs.Gauge("hm.occupancy.pm_pages")
	}
	startMigDRAM, startMigPM := e.Mem.MigratedToDRAM, e.Mem.MigratedToPM

	now := 0.0
	nextTick := interval
	tickCount := 0
	var tickBytes, tickMigBytes [NumTiers]float64
	running := 0
	for _, st := range states {
		if !st.finished {
			running++
		}
	}

	stepCount := 0
	for ; running > 0; stepCount++ {
		if stepCount >= maxSteps {
			return nil, fmt.Errorf("hm: simulation exceeded %d steps (step=%vs, %d tasks still running)", maxSteps, step, running)
		}

		// Pass 1: desired progress and bandwidth demand.
		type desire struct {
			frac float64 // fraction of each entry's remaining work desired
		}
		desires := make([]desire, len(states))
		var demand [NumTiers]float64 // bytes desired this step
		for i, st := range states {
			if st.finished {
				continue
			}
			memTime := 0.0
			for j := range st.entries {
				en := &st.entries[j]
				if en.remaining <= eps {
					continue
				}
				memTime += en.remaining / e.entryRate(en)
			}
			f := 1.0
			if memTime > eps {
				f = math.Min(1, step/memTime)
			}
			desires[i] = desire{frac: f}
			for j := range st.entries {
				en := &st.entries[j]
				if en.remaining <= eps {
					continue
				}
				delta := en.remaining * f
				bytesPer := 64.0 * e.missTrafficFactor(en)
				demand[DRAM] += delta * en.fracDRAM * bytesPer * e.writeCost(DRAM, en.pa.WriteFrac)
				demand[PM] += delta * (1 - en.fracDRAM) * bytesPer * e.writeCost(PM, en.pa.WriteFrac)
			}
		}

		// Migration traffic drains first, up to its bandwidth share.
		var avail, migUsed [NumTiers]float64
		for t := TierID(0); t < NumTiers; t++ {
			cap := e.Mem.Spec.BytesPerSecond(t) * step
			migAvail := cap * e.Mem.Spec.MigrationShare
			migUsed[t] = math.Min(e.Mem.migrationBytes[t], migAvail)
			e.Mem.migrationBytes[t] -= migUsed[t]
			avail[t] = cap - migUsed[t]
		}

		var scale [NumTiers]float64
		for t := TierID(0); t < NumTiers; t++ {
			scale[t] = 1
			if demand[t] > avail[t] && demand[t] > 0 {
				scale[t] = avail[t] / demand[t]
			}
		}

		// Pass 2: apply scaled progress.
		for i, st := range states {
			if st.finished {
				continue
			}
			memRemaining := false
			for j := range st.entries {
				en := &st.entries[j]
				if en.remaining <= eps {
					continue
				}
				delta := en.remaining * desires[i].frac
				eff := delta * (en.fracDRAM*scale[DRAM] + (1-en.fracDRAM)*scale[PM])
				if eff > en.remaining {
					eff = en.remaining
				}
				doneBefore := en.done()
				en.remaining -= eff
				en.sinceTick += eff
				st.intervalAccesses += eff
				frac := en.fracDRAM
				if en.sweep && !e.MemoryMode {
					// Attribute the step's accesses to the pages the
					// sweep actually covered, and refresh the rate
					// fraction for the next window. (Under Memory Mode
					// the page table is inert; the cache model's
					// fraction already applies.)
					frac = sweepWindowFrac(en.pa.Obj, en.total, doneBefore, en.done())
					e.refreshFrac(en)
				}
				dram := eff * frac
				st.counters.MainAccesses += eff
				st.counters.DRAMAccesses += dram
				st.counters.PMAccesses += eff - dram
				bytes := eff * 64 * e.missTrafficFactor(en)
				st.counters.MemBytes += bytes
				tickBytes[DRAM] += bytes * frac
				tickBytes[PM] += bytes * (1 - frac)
				if en.remaining > eps {
					memRemaining = true
				}
			}
			// Compute overlaps partially with outstanding memory work.
			if st.computeRem > eps {
				rate := 1.0
				if memRemaining {
					rate = st.overlap
					st.counters.StallSeconds += (1 - st.overlap) * step
				}
				st.computeRem -= step * rate
				st.counters.ComputeSeconds += step * rate
			} else if memRemaining {
				st.counters.StallSeconds += step
			}

			if !memRemaining && st.computeRem <= eps {
				if err := e.advancePhase(st); err != nil {
					return nil, err
				}
				if st.finished {
					res.TaskTimes[i] = now + step
					running--
				}
			}
		}
		for t := TierID(0); t < NumTiers; t++ {
			tickMigBytes[t] += migUsed[t]
		}

		now += step

		// Policy tick and telemetry flush.
		if now+eps >= nextTick || running == 0 {
			e.flushCounters(states)
			span := interval
			if running == 0 {
				span = now - (nextTick - interval)
				if span <= 0 {
					span = step
				}
			}
			var s BWSample
			s.Time = now
			for t := TierID(0); t < NumTiers; t++ {
				s.GBs[t] = (tickBytes[t] + tickMigBytes[t]) / span / 1e9
				s.MigGBs[t] = tickMigBytes[t] / span / 1e9
				obsBytes[t].Add(tickBytes[t])
				obsMigBytes[t].Add(tickMigBytes[t])
				obsOcc[t].Set(float64(e.Mem.UsedPages(t)))
				tickBytes[t], tickMigBytes[t] = 0, 0
			}
			obsTicks.Inc()
			res.Bandwidth = append(res.Bandwidth, s)
			tickCount++
			if e.EpochTicks > 0 && (tickCount%e.EpochTicks == 0 || running == 0) {
				res.Epochs = append(res.Epochs, e.epochSnapshot(len(res.Epochs), now, states))
			}

			// The cancellation point: checked once per policy tick, so a
			// canceled context aborts the run within one interval.
			if running > 0 {
				if err := merr.FromContext(ctx, "hm: run canceled"); err != nil {
					return nil, err
				}
			}
			if e.Policy != nil && running > 0 {
				statuses := e.taskStatuses(states)
				e.Policy.Tick(now, e.Mem, statuses)
				if e.Debug {
					if err := e.Mem.CheckInvariants(); err != nil {
						return nil, err
					}
				}
			}
			// Placement may have changed; refresh DRAM fractions.
			for _, st := range states {
				if st.finished {
					continue
				}
				for j := range st.entries {
					e.refreshFrac(&st.entries[j])
				}
			}
			e.Mem.ResetIntervalCounters()
			nextTick += interval
		}
	}

	obsSteps.Add(float64(stepCount))
	if e.Obs != nil {
		e.Obs.Counter("hm.migrations.to_dram").Add(float64(e.Mem.MigratedToDRAM - startMigDRAM))
		e.Obs.Counter("hm.migrations.to_pm").Add(float64(e.Mem.MigratedToPM - startMigPM))
		for t := TierID(0); t < NumTiers; t++ {
			obsOcc[t].Set(float64(e.Mem.UsedPages(t)))
		}
	}

	res.Makespan = 0
	for i, st := range states {
		st.counters.FinishTime = res.TaskTimes[i]
		if st.counters.MainAccesses > 0 {
			st.counters.AvgMLP /= st.counters.MainAccesses
			st.counters.AvgPrefetchMiss /= st.counters.MainAccesses
			st.counters.RegularFraction /= st.counters.MainAccesses
			st.counters.WriteFraction /= st.counters.MainAccesses
		}
		res.Counters[i] = st.counters
		if res.TaskTimes[i] > res.Makespan {
			res.Makespan = res.TaskTimes[i]
		}
	}
	return res, nil
}

// advancePhase initializes the next phase of st, or marks it finished.
func (e *Engine) advancePhase(st *taskState) error {
	// Flush the finished phase's page counters and per-object attribution
	// before moving on.
	e.flushEntryCounters(st)
	if len(st.entries) > 0 {
		if st.counters.ObjectAccesses == nil {
			st.counters.ObjectAccesses = map[string]float64{}
		}
		for j := range st.entries {
			en := &st.entries[j]
			st.counters.ObjectAccesses[en.pa.Obj.Name] += en.done()
		}
	}
	st.phaseIdx++
	if st.phaseIdx >= len(st.work.Phases) {
		st.finished = true
		st.entries = nil
		return nil
	}
	ph := st.work.Phases[st.phaseIdx]
	st.computeRem = ph.ComputeSeconds
	st.entries = make([]entryState, len(ph.Accesses))
	var overlapSum, accSum float64
	for j, pa := range ph.Accesses {
		if pa.Obj == nil {
			return fmt.Errorf("hm: task %q phase %q access %d has nil object", st.work.Name, ph.Name, j)
		}
		if err := pa.Pattern.Validate(); err != nil {
			return fmt.Errorf("hm: task %q phase %q: %w", st.work.Name, ph.Name, err)
		}
		main := pa.Pattern.MainMemoryAccesses(pa.ProgramAccesses, float64(pa.Obj.Bytes), e.Mem.Spec.LLCBytes)
		en := entryState{pa: pa, remaining: main, total: main}
		en.sweep = pa.Pattern.Kind != access.Random
		if !en.sweep {
			en.weights = e.Mem.pageWeights(pa.Pattern, pa.Obj.NumPages(), pa.Seed)
		}
		e.refreshFrac(&en)
		st.entries[j] = en

		st.counters.ProgramAccesses += pa.ProgramAccesses
		st.counters.AvgMLP += main * pa.Pattern.MLP()
		st.counters.AvgPrefetchMiss += main * pa.Pattern.PrefetchMissRatio()
		st.counters.WriteFraction += main * pa.WriteFrac
		if pa.Pattern.IsRegular() {
			st.counters.RegularFraction += main
		}
		overlapSum += main * overlapFactor(pa.Pattern)
		accSum += main
	}
	if accSum > 0 {
		st.overlap = overlapSum / accSum
	} else {
		st.overlap = 1
	}
	return nil
}

// sweepWindowFrac returns the DRAM share of the pages a sweep covered
// between progress doneBefore and doneAfter (in accesses out of total).
func sweepWindowFrac(obj *Object, total, doneBefore, doneAfter float64) float64 {
	n := obj.NumPages()
	if n == 0 || total <= 0 {
		return 0
	}
	lo := int(doneBefore / total * float64(n))
	hi := int(math.Ceil(doneAfter / total * float64(n)))
	if lo >= n {
		lo = n - 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	if hi > n {
		hi = n
	}
	dram := 0
	for p := lo; p < hi; p++ {
		if obj.Loc[p] == DRAM {
			dram++
		}
	}
	return float64(dram) / float64(hi-lo)
}

// overlapFactor is the fraction of compute that proceeds while memory
// accesses are outstanding: regular patterns pipeline well, dependent
// (random/pointer-chasing) patterns stall the core. This is the
// microarchitectural source of Equation 2's nonlinearity.
func overlapFactor(p access.Pattern) float64 {
	switch p.Kind {
	case access.Stream:
		return 0.85
	case access.Strided:
		return 0.8
	case access.Stencil:
		if p.InputDependent {
			return 0.6
		}
		return 0.8
	default:
		return 0.45
	}
}

// entryRate returns the unconstrained main-memory access rate
// (accesses/second) of an entry under the current placement.
//
// Two effects make the rate nonlinear in the DRAM fraction — deliberately,
// because this nonlinearity is what the paper's correlation function f(·)
// exists to capture (Section 5, Figure 3):
//
//  1. Effective MLP grows with the DRAM fraction: fast responses let the
//     prefetcher and out-of-order window keep more requests in flight,
//     with a pattern-dependent gain (Pattern.MLPBoost).
//  2. PM's write path congests: the more write traffic stays on PM, the
//     longer its effective write latency (the write-queue behaviour of
//     Optane documented in the paper's §2 bandwidth asymmetry).
func (e *Engine) entryRate(en *entryState) float64 {
	spec := e.Mem.Spec
	latD := spec.Latency(DRAM, en.pa.WriteFrac)
	latP := spec.Latency(PM, en.pa.WriteFrac)
	fracPM := 1 - en.fracDRAM
	// Write-queue congestion scales with the slow tier's write-bandwidth
	// asymmetry (WriteFactor = 1 on DRAM-like tiers ⇒ no congestion), so
	// homogeneous DRAM-performance runs behave like real DRAM.
	latP *= 1 + 0.57*fracPM*en.pa.WriteFrac*(spec.Tiers[PM].WriteFactor-1)
	lat := en.fracDRAM*latD + fracPM*latP
	if lat <= 0 {
		lat = 1
	}
	// MLP boost keys on the absolute latency the entry experiences —
	// fast responses keep the out-of-order window and prefetch trains
	// full — so it applies equally to hybrid placements and to
	// homogeneous runs at DRAM speed.
	const refFastLatencyNs = 80
	fastness := refFastLatencyNs / lat
	if fastness > 1 {
		fastness = 1
	}
	mlp := en.pa.Pattern.MLP() * (1 + en.pa.Pattern.MLPBoost()*fastness)
	return mlp * 1e9 / lat
}

// missTrafficFactor scales line traffic for write-allocate + writeback:
// written lines are eventually written back, roughly doubling their
// traffic.
func (e *Engine) missTrafficFactor(en *entryState) float64 {
	return 1 + en.pa.WriteFrac
}

// writeCost returns how many pool-bytes one byte of this entry's traffic
// consumes on tier t, modeling PM's asymmetric write bandwidth.
func (e *Engine) writeCost(t TierID, writeFrac float64) float64 {
	wf := e.Mem.Spec.Tiers[t].WriteFactor
	return 1 + writeFrac*(wf-1)
}

// refreshFrac recomputes the entry's DRAM-access fraction from the page
// table (or the Memory Mode cache model). For sweep entries only the
// pages *ahead of the sweep position* matter: accesses behind it are
// already done, so migrating those pages cannot change this phase.
func (e *Engine) refreshFrac(en *entryState) {
	if e.MemoryMode {
		en.fracDRAM = e.memoryModeHitRatio(en)
		return
	}
	obj := en.pa.Obj
	n := obj.NumPages()
	if n == 0 {
		en.fracDRAM = 0
		return
	}
	if en.sweep {
		// A sweep consumes pages in order: what matters is the DRAM
		// share of the window about to be swept, not of everything
		// remaining. Look ahead ~2% of the object (at least one page).
		start := 0
		if en.total > 0 {
			start = int(en.done() / en.total * float64(n))
		}
		if start >= n {
			start = n - 1
		}
		w := n / 50
		if w < 1 {
			w = 1
		}
		end := start + w
		if end > n {
			end = n
		}
		dram := 0
		for i := start; i < end; i++ {
			if obj.Loc[i] == DRAM {
				dram++
			}
		}
		en.fracDRAM = float64(dram) / float64(end-start)
		return
	}
	var f float64
	for i, w := range en.weights {
		if obj.Loc[i] == DRAM {
			f += w
		}
	}
	en.fracDRAM = f
}

// memoryModeHitRatio estimates the DRAM-cache hit ratio of this entry
// under Memory Mode. The live working set is the sum of all registered
// objects' pages (hardware cannot tell live from dead data); the entry's
// own effective footprint shrinks when its accesses are skewed (hot pages
// stay cached), captured by the inverse Simpson index of its page weights.
func (e *Engine) memoryModeHitRatio(en *entryState) float64 {
	frames := float64(e.Mem.Spec.CapacityPages(DRAM))
	var totalPages float64
	for _, o := range e.Mem.Objects() {
		totalPages += float64(o.NumPages())
	}
	// Effective pages of this entry: 1/Σw² (uniform → all pages, skewed →
	// few hot pages dominate). Sweep entries touch pages uniformly.
	own := float64(en.pa.Obj.NumPages())
	effOwn := own
	if !en.sweep {
		var sq float64
		for _, w := range en.weights {
			sq += w * w
		}
		if sq > 0 {
			effOwn = 1 / sq
		} else {
			effOwn = totalPages
		}
	}
	if own > 0 && effOwn > own {
		effOwn = own
	}
	// The entry competes for frames with everything else that is live.
	other := totalPages - own
	ws := effOwn + other
	h := ExpectedHitRatioDirectMapped(frames, ws)
	// Direct mapping is luck-of-the-address-bits: objects whose pages
	// collide in the cache index see materially worse hit ratios. A
	// deterministic per-object conflict factor models this — it is what
	// makes Memory Mode *increase* task imbalance in the paper's Figure 5.
	id := uint64(en.pa.Obj.ID)
	id ^= id << 13
	id ^= id >> 7
	id ^= id << 17
	conflict := 0.6 + 0.8*float64(id%1000)/1000
	return e.memoryModeAdjust(h * conflict)
}

// memoryModeAdjust caps Memory Mode hit ratios below 1: even a fully
// cached working set pays the hardware cache's tag-check and fill traffic.
func (e *Engine) memoryModeAdjust(h float64) float64 {
	const ceiling = 0.95
	if h > ceiling {
		return ceiling
	}
	if h < 0 {
		return 0
	}
	return h
}

// flushCounters moves per-entry progress into the per-page access
// counters of every task.
func (e *Engine) flushCounters(states []*taskState) {
	for _, st := range states {
		e.flushEntryCounters(st)
	}
}

func (e *Engine) flushEntryCounters(st *taskState) {
	for j := range st.entries {
		en := &st.entries[j]
		if en.sinceTick <= 0 {
			continue
		}
		obj := en.pa.Obj
		n := obj.NumPages()
		if n == 0 {
			en.sinceTick = 0
			continue
		}
		if en.sweep {
			// Credit the window of pages the sweep covered since the
			// last flush.
			lo, hi := 0, n
			if en.total > 0 {
				lo = int(en.flushedAt / en.total * float64(n))
				hi = int(math.Ceil(en.done() / en.total * float64(n)))
			}
			if hi <= lo {
				hi = lo + 1
			}
			if hi > n {
				hi = n
			}
			if lo >= n {
				lo = n - 1
			}
			per := en.sinceTick / float64(hi-lo)
			for i := lo; i < hi; i++ {
				obj.PageAccess[i] += per
				obj.IntervalAccess[i] += per
			}
			en.flushedAt = en.done()
			en.sinceTick = 0
			continue
		}
		for i, w := range en.weights {
			a := en.sinceTick * w
			obj.PageAccess[i] += a
			obj.IntervalAccess[i] += a
		}
		en.sinceTick = 0
	}
}

// epochSnapshot captures per-task progress and tier occupancy at an
// epoch boundary.
func (e *Engine) epochSnapshot(idx int, now float64, states []*taskState) EpochProgress {
	ep := EpochProgress{Index: idx, Time: now, Done: make([]float64, len(states))}
	for i, st := range states {
		ep.Done[i] = taskDoneFraction(st)
	}
	for t := TierID(0); t < NumTiers; t++ {
		ep.Occupancy[t] = e.Mem.UsedPages(t)
	}
	return ep
}

// taskDoneFraction is the task's completed fraction of its planned
// main-memory accesses, clamped to [0, 1].
func taskDoneFraction(st *taskState) float64 {
	if st.finished {
		return 1
	}
	if st.planned <= 0 {
		return 0
	}
	f := st.counters.MainAccesses / st.planned
	if f > 1 {
		f = 1
	}
	return f
}

// taskStatuses builds the policy-facing snapshot.
func (e *Engine) taskStatuses(states []*taskState) []TaskStatus {
	out := make([]TaskStatus, len(states))
	for i, st := range states {
		ts := TaskStatus{Name: st.work.Name, Finished: st.finished}
		ts.RDRAM = st.counters.RDRAM()
		ts.IntervalAccesses = st.intervalAccesses
		st.intervalAccesses = 0
		ts.DoneAccesses = st.counters.MainAccesses
		ts.PlannedAccesses = st.planned
		ts.StallSeconds = st.counters.StallSeconds
		if !st.finished {
			for j := range st.entries {
				ts.Objects = append(ts.Objects, st.entries[j].pa.Obj)
			}
		}
		out[i] = ts
	}
	return out
}

// ExpectedHitRatioDirectMapped re-exports the cache package's closed form
// so hm users don't need to import internal/cache directly.
func ExpectedHitRatioDirectMapped(frames, wsPages float64) float64 {
	return cache.ExpectedDirectMappedHitRatio(frames, wsPages)
}
