// Package core is Merchandiser itself: the load-balance-aware page
// management runtime of the paper.
//
// As a task.Policy, it implements the paper's online workflow (§5.3):
//
//   - Instance 0 runs with the base input. Merchandiser profiles it: per
//     data object the main-memory access count (the PTE-profiling methods
//     of Section 4, read from the simulator's page counters), per task the
//     8 workload-characteristic events, and per phase the homogeneous
//     DRAM/PM execution times (the offline basic-block measurement of
//     §5.2, run on scratch memories).
//   - Before every later instance, when the new input's data-object sizes
//     become known (the LB_HM_config point), it estimates per-object
//     memory accesses with Equation 1 (offline α for regular patterns,
//     runtime-refined α for input-dependent ones), predicts the PM-only
//     and DRAM-only times, runs Algorithm 1 to compute per-task DRAM
//     access goals, and installs those goals as the migration gate of the
//     MemoryOptimizer-style daemon.
//   - After every instance it refines α from sampled per-object access
//     measurements (PEBS-style, Section 4).
package core

import (
	"context"
	"fmt"
	"sort"

	"merchandiser/internal/access"
	"merchandiser/internal/baseline"
	"merchandiser/internal/hm"
	"merchandiser/internal/model"
	"merchandiser/internal/obs"
	"merchandiser/internal/placement"
	"merchandiser/internal/pmc"
	"merchandiser/internal/task"
)

// Config configures a Merchandiser runtime.
type Config struct {
	// Spec is the platform; needed for event synthesis and offline
	// basic-block measurement.
	Spec hm.SystemSpec
	// Perf carries the trained correlation function f(·). A nil
	// correlation function degrades Equation 2 to linear interpolation.
	Perf *model.PerfModel
	// Daemon configures the underlying migration daemon.
	Daemon baseline.DaemonConfig
	// Algorithm tunes Algorithm 1 (default 5% step).
	Algorithm placement.Config
	// DisableRefinement turns off the online α refinement (ablation:
	// input-dependent patterns stay at α = 1).
	DisableRefinement bool
	// UniformMapping forces Algorithm 1's original uniform
	// access-to-page mapping instead of the density-aware refinement
	// (ablation of the DESIGN.md deviation).
	UniformMapping bool
	// OptimalPlanner replaces Algorithm 1's greedy with the
	// binary-search min-makespan planner (ablation: how much does the
	// 5%-step greedy leave on the table?).
	OptimalPlanner bool
	// Replan configures the epoch-based re-planning lifecycle. The zero
	// value (ReplanOff) runs the paper's plan-once workflow unchanged.
	Replan ReplanConfig
	Seed   int64
	// Obs, when non-nil, receives the runtime's metrics (plans built,
	// migration-gate blocks) and is forwarded to Algorithm 1 as
	// Algorithm.Obs unless that is set explicitly.
	Obs *obs.Registry
}

// samplerRate is the PEBS sampling period for α refinement, and
// offlineStepSec the simulation step of the offline basic-block
// measurements.
const (
	samplerRate    = 2000
	offlineStepSec = 0.002
)

func (c Config) withDefaults() Config {
	if c.Perf == nil {
		c.Perf = &model.PerfModel{}
	}
	if c.Algorithm.Obs == nil {
		c.Algorithm.Obs = c.Obs
	}
	return c
}

// objProfile is the per-data-object base profile of one task.
type objProfile struct {
	name     string
	pattern  access.Pattern
	sizeBase float64
	// memAccBase is the profiled main-memory access count with the base
	// input (prof_mem_acc of Equation 1).
	memAccBase float64
	// refiner refines α online for input-dependent patterns; nil for
	// patterns whose α is computed offline.
	refiner *model.AlphaRefiner
	// lastSizeNew remembers the size used by the most recent estimate so
	// the refiner can attribute the measured accesses.
	lastSizeNew float64
	// alphaSize and alpha hold the last offline α computed, and the new
	// size it was computed for (see offlineAlpha); alpha is 0 until then.
	alphaSize, alpha float64
}

// offlineAlpha returns model.AlphaOffline(op.pattern, op.sizeBase, sNew).
// That is a pure function, fixed once the profile is built, and for an
// input-independent stencil it runs a cache-simulated microbenchmark, as
// the paper measures α offline: so it is computed once per new size, not
// on every plan and report. AlphaOffline never returns 0.
func (op *objProfile) offlineAlpha(sNew float64) float64 {
	if op.alpha == 0 || sNew != op.alphaSize {
		op.alphaSize, op.alpha = sNew, model.AlphaOffline(op.pattern, op.sizeBase, sNew)
	}
	return op.alpha
}

// taskProfile is one task's base-input profile.
type taskProfile struct {
	name    string
	objects []*objProfile
	events  pmc.Counters
	blocks  []model.BasicBlock
	// baseSizes is the input-size vector (one entry per object) with the
	// base input, for the §5.2 cosine-similarity scaling.
	baseSizes []float64
	// baseTime is the measured execution time of the base instance — the
	// input of the Table 4 size-ratio comparator.
	baseTime float64
}

// Merchandiser implements task.Policy.
type Merchandiser struct {
	task.Base
	cfg     Config
	daemon  *baseline.Daemon
	sampler *pmc.Sampler

	profiles []*taskProfile

	// LastPlan exposes the most recent Algorithm 1 output for inspection
	// by experiments and tests.
	LastPlan *placement.Plan
	// Predictions records (task, predicted time, instance) tuples for the
	// Table 4 accuracy study.
	Predictions []Prediction

	// replan is the current instance's epoch lifecycle; nil while
	// re-planning is off or during the base instance.
	replan *replanState
	// EpochReports records every epoch boundary's observation and action
	// across instances; deterministic, for experiments and tests.
	EpochReports []EpochReport
	// Replans counts residual plans actually applied.
	Replans int
}

// Prediction is one Equation 2 prediction paired against the measured
// execution time (filled by AfterInstance).
type Prediction struct {
	Instance  int
	Task      string
	Predicted float64
	Measured  float64
	// SizeScale is Σsizes(instance)/Σsizes(base) — what the Table 4
	// profiling-based-regression comparator scales the base time by.
	SizeScale float64
}

// New builds a Merchandiser runtime.
func New(cfg Config) *Merchandiser {
	cfg = cfg.withDefaults()
	if cfg.Daemon.RegionPages <= 0 {
		// Merchandiser places 4 KB pages individually (memkind-level
		// control), unlike the region-granular MemoryOptimizer daemon.
		cfg.Daemon.RegionPages = 1
	}
	d := baseline.NewDaemon(cfg.Daemon)
	d.NoEvict = true
	return &Merchandiser{
		cfg:     cfg,
		daemon:  d,
		sampler: pmc.NewSampler(samplerRate, cfg.Seed+11),
	}
}

// Name implements task.Policy.
func (m *Merchandiser) Name() string { return "Merchandiser" }

// Tick implements the unified task.Policy contract by driving the gated
// migration daemon at every engine tick, then advancing the epoch
// lifecycle when re-planning is enabled.
func (m *Merchandiser) Tick(now float64, mem *hm.Memory, tasks []hm.TaskStatus) {
	m.daemon.Tick(now, mem, tasks)
	if m.replan != nil {
		m.replanTick(now, mem, tasks)
	}
}

// GateBlocked reports how many migration candidates the load-balance gate
// held back.
func (m *Merchandiser) GateBlocked() uint64 { return m.daemon.GateBlocked }

// Daemon exposes the gated migration daemon for inspection.
func (m *Merchandiser) Daemon() *baseline.Daemon { return m.daemon }

// BeforeInstance implements task.Policy.
func (m *Merchandiser) BeforeInstance(ctx context.Context, i int, mem *hm.Memory, works []hm.TaskWork) error {
	m.replan = nil
	if i == 0 {
		// Base input: build profile skeletons and measure basic blocks
		// offline; the instance itself runs ungated for profiling.
		return m.initProfiles(ctx, works)
	}
	return m.plan(i, mem, works)
}

// initProfiles builds the per-task profile skeletons from the base
// instance's works and measures per-phase homogeneous times.
func (m *Merchandiser) initProfiles(ctx context.Context, works []hm.TaskWork) error {
	m.profiles = m.profiles[:0]
	for _, tw := range works {
		tp := &taskProfile{name: tw.Name}
		seen := map[string]*objProfile{}
		for _, ph := range tw.Phases {
			for _, pa := range ph.Accesses {
				op, ok := seen[pa.Obj.Name]
				if !ok {
					op = &objProfile{
						name:     pa.Obj.Name,
						pattern:  pa.Pattern,
						sizeBase: float64(pa.Obj.Bytes),
					}
					if pa.Pattern.InputDependent || pa.Pattern.Kind == access.Random {
						op.refiner = model.NewAlphaRefiner()
					}
					seen[pa.Obj.Name] = op
					tp.objects = append(tp.objects, op)
					tp.baseSizes = append(tp.baseSizes, float64(pa.Obj.Bytes))
				} else if irr(pa.Pattern) > irr(op.pattern) {
					op.pattern = pa.Pattern
					if op.refiner == nil && (pa.Pattern.InputDependent || pa.Pattern.Kind == access.Random) {
						op.refiner = model.NewAlphaRefiner()
					}
				}
			}
		}
		m.profiles = append(m.profiles, tp)
	}
	return m.measureBlocksGrouped(ctx, works)
}

func irr(p access.Pattern) int {
	switch p.Kind {
	case access.Stream:
		return 0
	case access.Strided:
		return 1
	case access.Stencil:
		return 2
	default:
		return 3
	}
}

// measureBlocksGrouped measures each phase's per-task execution time on
// PM-only and DRAM-only scratch memories — the paper's offline basic-block
// timing (§5.2, offline step 2). Each phase index runs with the full task
// group, so tier bandwidth contention (which dominates bandwidth-hungry
// applications) is part of the measurement, exactly as offline profiling
// on the real machine would see it.
func (m *Merchandiser) measureBlocksGrouped(ctx context.Context, works []hm.TaskWork) error {
	maxPhases := 0
	for _, tw := range works {
		if len(tw.Phases) > maxPhases {
			maxPhases = len(tw.Phases)
		}
	}
	for pi := 0; pi < maxPhases; pi++ {
		var times [2][]float64
		for t := hm.TierID(0); t < hm.NumTiers; t++ {
			spec := hm.HomogeneousSpec(m.cfg.Spec, t)
			scratch := hm.NewMemory(spec)
			objs := map[string]*hm.Object{}
			var group []hm.TaskWork
			for _, tw := range works {
				if pi >= len(tw.Phases) {
					continue
				}
				ph := tw.Phases[pi]
				clone := hm.Phase{Name: ph.Name, ComputeSeconds: ph.ComputeSeconds}
				for _, pa := range ph.Accesses {
					o, ok := objs[pa.Obj.Name]
					if !ok {
						var err error
						o, err = scratch.Alloc(pa.Obj.Name, pa.Obj.Owner, pa.Obj.Bytes, hm.PM)
						if err != nil {
							return fmt.Errorf("core: offline block measurement: %w", err)
						}
						objs[pa.Obj.Name] = o
					}
					cp := pa
					cp.Obj = o
					clone.Accesses = append(clone.Accesses, cp)
				}
				group = append(group, hm.TaskWork{Name: tw.Name, Phases: []hm.Phase{clone}})
			}
			if len(group) == 0 {
				continue
			}
			eng := &hm.Engine{Mem: scratch, StepSec: offlineStepSec}
			res, err := eng.Run(ctx, group)
			if err != nil {
				return fmt.Errorf("core: offline block measurement: %w", err)
			}
			times[t] = res.TaskTimes
		}
		gi := 0
		for ti, tw := range works {
			if pi >= len(tw.Phases) {
				continue
			}
			m.profiles[ti].blocks = append(m.profiles[ti].blocks, model.BasicBlock{
				Name:      tw.Phases[pi].Name,
				TimePM:    times[hm.PM][gi],
				TimeDRAM:  times[hm.DRAM][gi],
				BaseCount: 1,
			})
			gi++
		}
	}
	return nil
}

// plan runs Equation 1, the §5.2 predictor and Algorithm 1 for instance i
// and installs the resulting gate.
func (m *Merchandiser) plan(i int, mem *hm.Memory, works []hm.TaskWork) error {
	if len(m.profiles) != len(works) {
		return fmt.Errorf("core: instance %d has %d tasks, base had %d", i, len(works), len(m.profiles))
	}
	// Count how many tasks reference each object, to split shared
	// footprints.
	refs := map[*hm.Object]int{}
	for _, tw := range works {
		seen := map[*hm.Object]bool{}
		for _, ph := range tw.Phases {
			for _, pa := range ph.Accesses {
				if !seen[pa.Obj] {
					seen[pa.Obj] = true
					refs[pa.Obj]++
				}
			}
		}
	}

	inputs := make([]placement.TaskInput, len(works))
	for ti, tw := range works {
		tp := m.profiles[ti]
		newSizes, aligned, objsInWork := m.sizesFor(tp, tw)
		// Equation 1 per object; the per-object estimates also feed the
		// density-aware MAP_TO_PAGES.
		var totalAcc float64
		var loads []placement.ObjectLoad
		for oi, op := range tp.objects {
			alpha := 1.0
			if op.refiner != nil {
				alpha = op.refiner.Alpha()
			} else {
				alpha = op.offlineAlpha(newSizes[oi])
			}
			op.lastSizeNew = newSizes[oi]
			est := model.EstimateAccesses(op.memAccBase, op.sizeBase, newSizes[oi], alpha)
			totalAcc += est
			if aligned[oi] != nil {
				pages := uint64(aligned[oi].NumPages())
				if r := refs[aligned[oi]]; r > 1 {
					pages /= uint64(r)
				}
				loads = append(loads, placement.ObjectLoad{
					Name:     op.name,
					Accesses: est,
					Pages:    pages,
				})
			}
		}
		// §5.2 homogeneous-memory prediction.
		hp := &model.HomogeneousPredictor{Blocks: tp.blocks, BaseSizes: tp.baseSizes}
		tPm, tDram, err := hp.Predict(newSizes)
		if err != nil {
			return fmt.Errorf("core: task %s: %w", tw.Name, err)
		}
		if tPm <= 0 {
			tPm = 1e-6
		}
		if tDram <= 0 || tDram > tPm {
			tDram = tPm * 0.99
		}
		var footprint uint64
		for _, o := range objsInWork {
			n := uint64(o.NumPages())
			if r := refs[o]; r > 1 {
				n /= uint64(r)
			}
			footprint += n
		}
		if m.cfg.UniformMapping {
			loads = nil // fall back to the paper's Line 18 assumption
		}
		inputs[ti] = placement.TaskInput{
			Name:           tw.Name,
			TPmOnly:        tPm,
			TDramOnly:      tDram,
			Events:         tp.events,
			TotalAccesses:  totalAcc,
			FootprintPages: footprint,
			Objects:        loads,
		}
	}

	var plan *placement.Plan
	var err error
	dc := m.cfg.Spec.CapacityPages(hm.DRAM)
	if m.cfg.OptimalPlanner {
		plan, err = placement.MinMakespanPlan(inputs, dc, m.cfg.Perf, 1e-3)
	} else {
		plan, err = placement.GreedyLoadBalance(inputs, dc, m.cfg.Perf, m.cfg.Algorithm)
	}
	if err != nil {
		return fmt.Errorf("core: Algorithm 1: %w", err)
	}
	m.cfg.Obs.Counter("core.plans").Inc()
	m.LastPlan = plan
	gate := placement.NewGate(inputs, plan)
	gate.Accessors = map[string][]string{}
	for _, tw := range works {
		seen := map[string]bool{}
		for _, ph := range tw.Phases {
			for _, pa := range ph.Accesses {
				if !seen[pa.Obj.Name] {
					seen[pa.Obj.Name] = true
					gate.Accessors[pa.Obj.Name] = append(gate.Accessors[pa.Obj.Name], tw.Name)
				}
			}
		}
	}
	m.daemon.Gate = gate
	m.applyPlan(mem, works, inputs, plan)

	if m.cfg.Replan.Mode != ReplanOff {
		m.replan = &replanState{
			cfg:       m.cfg.Replan.withDefaults(),
			instance:  i,
			inputs:    inputs,
			works:     works,
			predicted: append([]float64(nil), plan.Predicted...),
		}
	}

	// Refresh the per-task predictions against the placement actually
	// realized: shared objects one task pulled into DRAM serve the other
	// tasks too, so each task's expected DRAM ratio can exceed its own
	// Algorithm 1 grant. Still a pre-execution prediction.
	for ti, tw := range works {
		tp := m.profiles[ti]
		_, aligned2, _ := m.sizesFor(tp, tw)
		var dramAcc float64
		for oi, op := range tp.objects {
			if aligned2[oi] == nil {
				continue
			}
			est := model.EstimateAccesses(op.memAccBase, op.sizeBase, op.lastSizeNew, alphaFor(op))
			dramAcc += est * aligned2[oi].DRAMFraction()
		}
		r := 0.0
		if inputs[ti].TotalAccesses > 0 {
			r = dramAcc / inputs[ti].TotalAccesses
		}
		plan.Predicted[ti] = m.cfg.Perf.Predict(inputs[ti].TPmOnly, inputs[ti].TDramOnly, tp.events, r)
	}
	for ti := range works {
		tp := m.profiles[ti]
		var baseSum, newSum float64
		for _, s := range tp.baseSizes {
			baseSum += s
		}
		sizes, _, _ := m.sizesFor(tp, works[ti])
		for _, s := range sizes {
			newSum += s
		}
		scale := 1.0
		if baseSum > 0 {
			scale = newSum / baseSum
		}
		m.Predictions = append(m.Predictions, Prediction{
			Instance:  i,
			Task:      works[ti].Name,
			Predicted: plan.Predicted[ti],
			SizeScale: scale,
		})
	}
	return nil
}

// BaseTimes returns each task's measured base-instance execution time —
// the input of Table 4's size-ratio comparator.
func (m *Merchandiser) BaseTimes() map[string]float64 {
	out := map[string]float64{}
	for _, tp := range m.profiles {
		out[tp.name] = tp.baseTime
	}
	return out
}

// AlphaReport returns the current α of every managed data object, offline
// values included (evaluated at the most recent base→new size pair) —
// the §7.3 "Values of α" study.
func (m *Merchandiser) AlphaReport() map[string]float64 {
	out := map[string]float64{}
	for _, tp := range m.profiles {
		for _, op := range tp.objects {
			if op.refiner != nil {
				out[op.name] = op.refiner.Alpha()
				continue
			}
			sNew := op.lastSizeNew
			if sNew <= 0 {
				sNew = op.sizeBase
			}
			out[op.name] = op.offlineAlpha(sNew)
		}
	}
	return out
}

// applyPlan realizes Algorithm 1's grants by page migration before task
// execution ("The increase of DRAM accesses of a task is implemented by
// migrating its pages to DRAM", §6): each task's DRAM page budget is
// spent on its densest objects, pages interleaved so uniform access
// patterns see the granted ratio. Pages above budget are demoted first;
// the migration traffic is charged to the memory system and drains
// against tier bandwidth during the instance.
func (m *Merchandiser) applyPlan(mem *hm.Memory, works []hm.TaskWork, inputs []placement.TaskInput, plan *placement.Plan) {
	m.realize(mem, computeDesired(mem, works, inputs, plan))
}

// computeDesired converts a plan's per-task page budgets into desired
// DRAM pages per object, densest objects of each task first.
func computeDesired(mem *hm.Memory, works []hm.TaskWork, inputs []placement.TaskInput, plan *placement.Plan) map[*hm.Object]uint64 {
	byName := map[string]*hm.Object{}
	for _, tw := range works {
		for _, ph := range tw.Phases {
			for _, pa := range ph.Accesses {
				byName[pa.Obj.Name] = pa.Obj
			}
		}
	}
	desired := map[*hm.Object]uint64{}
	for ti, in := range inputs {
		budget := plan.DRAMPages[ti]
		loads := append([]placement.ObjectLoad(nil), in.Objects...)
		sort.Slice(loads, func(a, b int) bool {
			da := loadDensity(loads[a])
			db := loadDensity(loads[b])
			if da != db {
				return da > db
			}
			return loads[a].Name < loads[b].Name
		})
		for _, l := range loads {
			if budget == 0 {
				break
			}
			obj := byName[l.Name]
			if obj == nil {
				continue
			}
			// Claim real pages of the object (shared objects can be
			// claimed by several tasks up to their full size; the
			// DRAM-full guard in realize keeps placement within capacity).
			take := uint64(obj.NumPages()) - desired[obj]
			if take > budget {
				take = budget
			}
			desired[obj] += take
			budget -= take
		}
	}
	return desired
}

// countMoves returns how many page migrations realizing the desired
// placement would issue: demotions of pages above desire plus promotions
// up to desire. It is the re-planner's migration-cost input, computed
// without touching the page table.
func countMoves(mem *hm.Memory, desired map[*hm.Object]uint64) uint64 {
	var moves uint64
	for _, o := range mem.Objects() {
		want := desired[o]
		have := o.DRAMPages()
		if have > want {
			moves += have - want
		} else {
			moves += want - have
		}
	}
	return moves
}

// realize walks the memory system toward the desired placement: pages
// above desire are demoted (coldest first by profiled history), then
// objects are promoted up to desire (hottest first; fresh objects without
// history get an interleaved spread).
func (m *Merchandiser) realize(mem *hm.Memory, desired map[*hm.Object]uint64) {
	for _, o := range mem.Objects() {
		want := desired[o]
		if o.DRAMPages() <= want {
			continue
		}
		for _, p := range pagesByHistory(o, true) {
			if o.DRAMPages() <= want {
				break
			}
			if o.Loc[p] == hm.DRAM {
				_ = mem.Migrate(o, p, hm.PM)
			}
		}
	}
	for o, want := range desired {
		if o.DRAMPages() >= want {
			continue
		}
		for _, p := range pagesByHistory(o, false) {
			if o.DRAMPages() >= want {
				break
			}
			if o.Loc[p] != hm.DRAM {
				if err := mem.Migrate(o, p, hm.DRAM); err != nil {
					return // DRAM full; plan bounded this, but stay safe
				}
			}
		}
	}
}

// pagesByHistory orders an object's pages by cumulative profiled accesses
// (coldest first when coldFirst). Objects with no history yet get an
// interleaved order so uniform access patterns see an even DRAM spread.
func pagesByHistory(o *hm.Object, coldFirst bool) []int {
	n := o.NumPages()
	idx := make([]int, n)
	var total float64
	for i := 0; i < n; i++ {
		idx[i] = i
		total += o.PageAccess[i]
	}
	if total == 0 {
		// Interleave: 0, n/2, n/4, 3n/4, ... via bit-reversal-ish stride.
		out := make([]int, 0, n)
		for stride := n; stride >= 1; stride /= 2 {
			for p := 0; p < n; p += stride {
				if len(out) == n {
					break
				}
				out = append(out, p)
			}
			if stride == 1 {
				break
			}
		}
		seen := make([]bool, n)
		uniq := out[:0]
		for _, p := range out {
			if !seen[p] {
				seen[p] = true
				uniq = append(uniq, p)
			}
		}
		for p := 0; p < n; p++ {
			if !seen[p] {
				uniq = append(uniq, p)
			}
		}
		return uniq
	}
	sort.Slice(idx, func(a, b int) bool {
		if o.PageAccess[idx[a]] != o.PageAccess[idx[b]] {
			if coldFirst {
				return o.PageAccess[idx[a]] < o.PageAccess[idx[b]]
			}
			return o.PageAccess[idx[a]] > o.PageAccess[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if coldFirst {
		return idx
	}
	return idx
}

// alphaFor returns an object's current α (refined or offline).
func alphaFor(op *objProfile) float64 {
	if op.refiner != nil {
		return op.refiner.Alpha()
	}
	sNew := op.lastSizeNew
	if sNew <= 0 {
		sNew = op.sizeBase
	}
	return op.offlineAlpha(sNew)
}

func loadDensity(l placement.ObjectLoad) float64 {
	if l.Pages == 0 {
		return 0
	}
	return l.Accesses / float64(l.Pages)
}

// sizesFor extracts the task's per-object size vector for this instance,
// aligned with the base profile's object order, plus the aligned objects
// (nil where absent) and the distinct objects referenced.
func (m *Merchandiser) sizesFor(tp *taskProfile, tw hm.TaskWork) ([]float64, []*hm.Object, []*hm.Object) {
	byName := map[string]*hm.Object{}
	var objs []*hm.Object
	for _, ph := range tw.Phases {
		for _, pa := range ph.Accesses {
			if _, ok := byName[pa.Obj.Name]; !ok {
				byName[pa.Obj.Name] = pa.Obj
				objs = append(objs, pa.Obj)
			}
		}
	}
	sizes := make([]float64, len(tp.objects))
	aligned := make([]*hm.Object, len(tp.objects))
	for i, op := range tp.objects {
		o, ok := byName[op.name]
		if !ok {
			// Object absent this instance: size 0 (no accesses).
			continue
		}
		sizes[i] = float64(o.Bytes)
		aligned[i] = o
	}
	return sizes, aligned, objs
}

// AfterInstance implements task.Policy: base-input profiling after
// instance 0, α refinement and prediction bookkeeping after every
// instance.
func (m *Merchandiser) AfterInstance(ctx context.Context, i int, mem *hm.Memory, res *hm.RunResult) error {
	for ti, tp := range m.profiles {
		perObj := res.Counters[ti].ObjectAccesses
		if i == 0 {
			// Collect base-input task information (online step 1).
			tp.events = pmc.Collect(m.cfg.Spec, res.Counters[ti])
			tp.baseTime = res.Counters[ti].FinishTime
			for _, op := range tp.objects {
				// The PM/DRAM profilers are sampled; model their error.
				op.memAccBase = m.sampler.Estimate(perObj[op.name])
				if op.memAccBase <= 0 {
					op.memAccBase = perObj[op.name] // profiling floor
				}
			}
		} else {
			// Runtime refinement of α for input-dependent objects.
			for _, op := range tp.objects {
				if op.refiner == nil || m.cfg.DisableRefinement {
					continue
				}
				measured := m.sampler.Estimate(perObj[op.name])
				if op.lastSizeNew > 0 {
					_ = op.refiner.Observe(op.memAccBase, op.sizeBase, measured, op.lastSizeNew)
				}
			}
		}
	}

	if reg := m.cfg.Obs; reg != nil {
		reg.Gauge("core.gate.blocked").Set(float64(m.daemon.GateBlocked))
	}

	// Fill measured times for this instance's predictions.
	for pi := range m.Predictions {
		p := &m.Predictions[pi]
		if p.Instance != i || p.Measured != 0 {
			continue
		}
		for ti, c := range res.Counters {
			_ = ti
			if c.Name == p.Task {
				p.Measured = c.FinishTime
				break
			}
		}
	}
	return nil
}
