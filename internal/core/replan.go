package core

import (
	"context"
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
	// makespan projection drifts past DriftThreshold over the plan's
	// prediction.
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
	// DriftThreshold is the relative predicted-vs-observed makespan
	// drift that triggers a re-plan in drift mode (default 0.25 = 25%).
	DriftThreshold float64
	// CostFactor scales the migration cost charged against a new plan's
	// projected win before it is applied (default 1; 0 keeps the charge
	// at the raw bandwidth model).
	CostFactor float64
	// MaxReplans bounds re-plans per instance (default 8).
	MaxReplans int
}

func (c ReplanConfig) withDefaults() ReplanConfig {
	if c.EpochTicks <= 0 {
		c.EpochTicks = 5
	}
	if c.DriftThreshold <= 0 {
		c.DriftThreshold = 0.25
	}
	if c.CostFactor < 0 {
		c.CostFactor = 1
	}
	if c.CostFactor == 0 {
		c.CostFactor = 1
	}
	if c.MaxReplans <= 0 {
		c.MaxReplans = 8
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
	ctx       context.Context
	instance  int
	inputs    []placement.TaskInput
	works     []hm.TaskWork
	predicted []float64 // plan's predicted per-task times at install
	ticks     int
	epoch     int
	replans   int
}

// replanOutcome carries one asynchronous residual-plan computation.
type replanOutcome struct {
	plan *placement.Plan
	err  error
}

// asyncPlan computes a constrained residual plan on a worker goroutine
// and returns the response channel. The channel is buffered, so if the
// caller abandons the wait (context canceled) the worker still finishes
// its bounded computation, sends without blocking, and exits — nothing
// leaks past one in-flight plan and nobody holds the engine's ledger.
func (m *Merchandiser) asyncPlan(inputs []placement.TaskInput, cons placement.Constraints) <-chan replanOutcome {
	ch := make(chan replanOutcome, 1)
	go func() {
		plan, err := placement.MinMakespanPlanConstrained(inputs, cons, m.cfg.Perf, 1e-3)
		ch <- replanOutcome{plan: plan, err: err}
	}()
	return ch
}

// constraints builds the planner constraints for the current memory
// system: total DRAM capacity plus per-tenant quotas when a ledger is
// installed.
func (m *Merchandiser) constraints(mem *hm.Memory) placement.Constraints {
	cons := placement.Constraints{CapacityPages: m.cfg.Spec.CapacityPages(hm.DRAM)}
	if mem != nil && mem.Quotas != nil {
		cons.TenantQuota = mem.Quotas.Quotas()
	}
	return cons
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
	trigger := r.cfg.Mode == ReplanDrift && drift > r.cfg.DriftThreshold
	if !trigger || r.replans >= r.cfg.MaxReplans {
		m.EpochReports = append(m.EpochReports, report)
		return
	}

	// Residual planning: shrink the instance's inputs to the remaining
	// work, folding the observed slowdown into the time bounds, and ask
	// the worker for a quota-constrained min-makespan partition of it.
	residual := placement.ResidualInputs(r.inputs, prog)
	outcome := m.asyncPlan(residual, m.constraints(mem))
	var out replanOutcome
	select {
	case out = <-outcome:
	case <-r.ctx.Done():
		// Canceled mid-epoch: do not apply anything; the engine aborts
		// at its own cancellation point. The worker drains itself.
		return
	}
	if out.err != nil || out.plan == nil {
		m.EpochReports = append(m.EpochReports, report)
		return
	}

	// Charge the migration bandwidth the new placement would consume
	// against its projected win; only apply when the move pays for
	// itself.
	desired := computeDesired(mem, r.works, residual, out.plan)
	moved := countMoves(mem, desired)
	cost := placement.MigrationCost(moved, m.cfg.Spec) * r.cfg.CostFactor
	residMS := out.plan.PredictedMakespan()
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
				if i >= len(out.plan.GoalRatio) {
					break
				}
				done := prog[i].Done
				m.daemon.Gate.GoalRatio[ts.Name] = done*ts.RDRAM + (1-done)*out.plan.GoalRatio[i]
			}
		}
		// The residual plan's predictions (from now) become the new
		// drift baseline: future projections are measured against
		// now + residual prediction, attributed proportionally.
		for i := range r.predicted {
			if i < len(out.plan.Predicted) {
				r.predicted[i] = now + out.plan.Predicted[i]
			}
		}
	}
	m.EpochReports = append(m.EpochReports, report)
}
