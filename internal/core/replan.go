package core

import (
	"fmt"

	"merchandiser/internal/hm"
	"merchandiser/internal/placement"
)

// ReplanMode selects when Merchandiser re-plans placement mid-instance.
type ReplanMode int

const (
	// ReplanOff never re-plans: the offline plan installed before the
	// instance runs unchanged to the sync point (the paper's behavior).
	ReplanOff ReplanMode = iota
	// ReplanDrift re-plans at an epoch boundary when the observed
	// makespan projection drifts more than driftThreshold (25%) over the
	// plan's prediction.
	ReplanDrift
)

// String implements fmt.Stringer with the flag spellings.
func (m ReplanMode) String() string {
	switch m {
	case ReplanDrift:
		return "drift"
	default:
		return "off"
	}
}

// ParseReplanMode parses the -replan flag spellings.
func ParseReplanMode(s string) (ReplanMode, error) {
	switch s {
	case "", "off":
		return ReplanOff, nil
	case "drift":
		return ReplanDrift, nil
	}
	return ReplanOff, fmt.Errorf("core: unknown replan mode %q (want off|drift)", s)
}

// ReplanConfig tunes the epoch-based re-planning lifecycle. The zero
// value (ReplanOff) leaves every existing policy byte-identical.
type ReplanConfig struct {
	Mode ReplanMode
	// EpochTicks is the epoch length in policy ticks (default 5). Epoch
	// boundaries count ticks — simulated time, never wall clock — so
	// they are deterministic across worker counts.
	EpochTicks int
}

const (
	// driftThreshold is the relative predicted-vs-observed makespan drift
	// that triggers a re-plan in drift mode.
	driftThreshold = 0.25
	// maxReplans bounds re-plans per instance.
	maxReplans = 8
)

func (c ReplanConfig) withDefaults() ReplanConfig {
	if c.EpochTicks <= 0 {
		c.EpochTicks = 5
	}
	return c
}

// EpochReport is one epoch boundary's deterministic record: what the
// lifecycle observed and what it did about it. Exposed for experiments,
// merchbench and tests.
type EpochReport struct {
	Instance int
	Epoch    int
	// Time is the simulated seconds into the instance at the boundary.
	Time float64
	// Drift is (projected observed makespan − plan predicted makespan) /
	// predicted; negative when the run is ahead of plan.
	Drift float64
	// Projected is the extrapolated observed makespan for the instance.
	Projected float64
	// Replanned records whether a residual plan was applied this epoch.
	Replanned bool
	// Residual is the residual plan's predicted remaining makespan
	// (seconds from the boundary); 0 when no plan was computed.
	Residual float64
	// MigrationCost is the charged cost (seconds) of realizing the
	// residual plan; 0 when no plan was computed.
	MigrationCost float64
	// MovedPages is how many page moves realizing the plan required.
	MovedPages uint64
}

// replanState is the per-instance epoch lifecycle: tick counting, drift
// measurement from the engine's internal progress counters (no observer
// required), and gated application of residual plans.
type replanState struct {
	cfg       ReplanConfig
	instance  int
	inputs    []placement.TaskInput
	works     []hm.TaskWork
	predicted []float64 // plan's predicted per-task times at install
	ticks     int
	epoch     int
	replans   int
}

// minProgress is the completed fraction below which a task's projection
// is considered too noisy to extrapolate from.
const minProgress = 0.01

// measure extrapolates the observed makespan from the engine's internal
// progress counters and derives per-task residual progress with observed
// correction factors.
func (r *replanState) measure(now float64, tasks []hm.TaskStatus) (drift, projected float64, prog []placement.ResidualProgress) {
	predictedMS := 0.0
	for _, p := range r.predicted {
		if p > predictedMS {
			predictedMS = p
		}
	}
	prog = make([]placement.ResidualProgress, len(tasks))
	projected = now
	for i, ts := range tasks {
		done := 0.0
		if ts.PlannedAccesses > 0 {
			done = ts.DoneAccesses / ts.PlannedAccesses
		}
		if done > 1 || ts.Finished {
			done = 1
		}
		corr := 1.0
		if !ts.Finished && done > minProgress && i < len(r.predicted) && r.predicted[i] > 0 {
			proj := now / done
			if proj > projected {
				projected = proj
			}
			corr = proj / r.predicted[i]
			if corr < 0.1 {
				corr = 0.1
			}
			if corr > 10 {
				corr = 10
			}
		}
		prog[i] = placement.ResidualProgress{Done: done, Correction: corr}
	}
	if predictedMS > 0 {
		drift = (projected - predictedMS) / predictedMS
	}
	return drift, projected, prog
}

// tick advances the epoch lifecycle by one policy tick. It runs on the
// engine's goroutine, synchronously: the engine blocks while a re-plan
// is computed, which keeps every output deterministic for any worker
// count (workers parallelize across runs, never within one).
func (m *Merchandiser) replanTick(now float64, mem *hm.Memory, tasks []hm.TaskStatus) {
	r := m.replan
	r.ticks++
	if r.ticks%r.cfg.EpochTicks != 0 {
		return
	}
	r.epoch++
	drift, projected, prog := r.measure(now, tasks)
	report := EpochReport{
		Instance:  r.instance,
		Epoch:     r.epoch,
		Time:      now,
		Drift:     drift,
		Projected: projected,
	}
	trigger := r.cfg.Mode == ReplanDrift && drift > driftThreshold
	if !trigger || r.replans >= maxReplans {
		m.EpochReports = append(m.EpochReports, report)
		return
	}

	// Residual planning: shrink the instance's inputs to the remaining
	// work, folding the observed slowdown into the time bounds, and plan
	// a min-makespan partition of the full DRAM capacity over it.
	residual := placement.ResidualInputs(r.inputs, prog)
	plan, err := placement.MinMakespanPlan(residual, m.cfg.Spec.CapacityPages(hm.DRAM), m.cfg.Perf, 1e-3)
	if err != nil {
		m.EpochReports = append(m.EpochReports, report)
		return
	}

	// Charge the migration bandwidth the new placement would consume
	// against its projected win; only apply when the move pays for
	// itself.
	desired := computeDesired(mem, r.works, residual, plan)
	moved := countMoves(mem, desired)
	cost := placement.MigrationCost(moved, m.cfg.Spec)
	residMS := plan.PredictedMakespan()
	report.Residual = residMS
	report.MigrationCost = cost
	report.MovedPages = moved
	if now+residMS+cost < projected {
		m.realize(mem, desired)
		r.replans++
		m.Replans++
		report.Replanned = true
		// Retarget the migration gate at the blended cumulative goal:
		// accesses already done at the achieved ratio plus the residual
		// at the new goal.
		if m.daemon.Gate != nil {
			for i, ts := range tasks {
				if i >= len(plan.GoalRatio) {
					break
				}
				done := prog[i].Done
				m.daemon.Gate.GoalRatio[ts.Name] = done*ts.RDRAM + (1-done)*plan.GoalRatio[i]
			}
		}
		// The residual plan's predictions (from now) become the new
		// drift baseline: future projections are measured against
		// now + residual prediction, attributed proportionally.
		for i := range r.predicted {
			if i < len(plan.Predicted) {
				r.predicted[i] = now + plan.Predicted[i]
			}
		}
	}
	m.EpochReports = append(m.EpochReports, report)
}
