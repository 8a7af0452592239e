// Package task is the task-parallel runtime of the reproduction: it runs
// an application as a sequence of task instances separated by global
// synchronization points (the MPI/OpenMP structure of Figure 1), executing
// each instance's task group on the hm engine under a pluggable
// data-placement policy.
//
// An App supplies, per instance, one hm.TaskWork per task — sizes and
// access counts may vary across instances (the paper's "task instances use
// the same H but different PSI" situation). The Runner owns the Memory, so
// page placement persists across instances, which is what makes profiling
// and migration pay off.
package task

import (
	"context"
	"fmt"

	"merchandiser/internal/hm"
	"merchandiser/internal/merr"
	"merchandiser/internal/obs"
)

// App is a task-parallel application.
type App interface {
	// Name returns the application name (e.g. "SpGEMM").
	Name() string
	// Setup allocates the application's long-lived data objects.
	Setup(mem *hm.Memory) error
	// NumInstances is how many task instances (iterations between global
	// syncs) the app runs.
	NumInstances() int
	// Instance returns one TaskWork per task for instance i. It may
	// allocate (and free) per-instance objects in mem.
	Instance(i int, mem *hm.Memory) ([]hm.TaskWork, error)
}

// Policy is a data-placement policy driving a whole application run. It
// unifies the two historical contracts: the run-lifecycle hooks below and
// the engine-tick contract (hm.Policy — Name plus Tick), so one value is
// both the runtime's policy and the engine's migration daemon. Policies
// with no runtime migration embed Base for a no-op Tick.
//
// A Policy instance carries per-run mutable state (profiles, α refiners,
// hotness scores) and must not be shared across concurrent runs — mint a
// fresh one per run (the public API does this through PolicyFactory).
type Policy interface {
	// hm.Policy: Name (as used in the paper's figures) and the per-interval
	// Tick driven by the engine during execution.
	hm.Policy
	// Setup is called once after the app allocated its long-lived
	// objects; static policies place pages here.
	Setup(ctx context.Context, mem *hm.Memory, app App) error
	// BeforeInstance is called with instance i's works right before
	// execution (the LB_HM_config point: object sizes are known).
	BeforeInstance(ctx context.Context, i int, mem *hm.Memory, works []hm.TaskWork) error
	// MemoryMode reports whether the engine emulates Optane Memory Mode.
	MemoryMode() bool
	// AfterInstance is called with the instance's results (profiling,
	// α refinement).
	AfterInstance(ctx context.Context, i int, mem *hm.Memory, res *hm.RunResult) error
}

// Options tunes the runner.
type Options struct {
	StepSec     float64
	IntervalSec float64
	Debug       bool
	// Observer, when non-nil, collects the run's metrics (per-task
	// busy/stall at every global sync, per-instance makespans, tier bytes
	// and occupancy from the engine) and — if its event log is enabled —
	// chrome-trace spans per instance and task on the simulated timeline.
	// Everything recorded is deterministic for a fixed seed; nil disables
	// observability at no allocation cost.
	Observer *obs.Registry
}

// InstanceResult is one instance's outcome.
type InstanceResult struct {
	TaskTimes []float64
	Makespan  float64
	Counters  []hm.TaskCounters
}

// Result is a whole application run.
type Result struct {
	App       string
	Policy    string
	Instances []InstanceResult
	// TotalTime is the sum of instance makespans — the end-to-end
	// application time with a barrier after every instance.
	TotalTime float64
	// Bandwidth concatenates the per-instance telemetry with cumulative
	// time offsets (Figure 6).
	Bandwidth []hm.BWSample
	// Migrated counts pages moved into DRAM over the whole run.
	MigratedToDRAM uint64
}

// TaskTimeMatrix returns per-instance task times ([][]float64) — the
// Figure 5 boxplot input.
func (r *Result) TaskTimeMatrix() [][]float64 {
	out := make([][]float64, len(r.Instances))
	for i, inst := range r.Instances {
		out[i] = inst.TaskTimes
	}
	return out
}

// Run executes the app under the policy on a fresh Memory with the given
// spec. Cancellation unwinds at instance boundaries and — through the
// engine — at policy-tick granularity within an instance; the returned
// error then satisfies errors.Is(err, context.Canceled). A nil ctx
// behaves like context.Background().
func Run(ctx context.Context, app App, spec hm.SystemSpec, pol Policy, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	mem := hm.NewMemory(spec)
	if err := app.Setup(mem); err != nil {
		return nil, fmt.Errorf("task: %s setup: %w", app.Name(), err)
	}
	if err := pol.Setup(ctx, mem, app); err != nil {
		return nil, fmt.Errorf("task: policy %s setup: %w", pol.Name(), err)
	}
	res := &Result{App: app.Name(), Policy: pol.Name()}
	for i := 0; i < app.NumInstances(); i++ {
		if err := merr.FromContext(ctx, fmt.Sprintf("task: %s canceled before instance %d", app.Name(), i)); err != nil {
			return nil, err
		}
		works, err := app.Instance(i, mem)
		if err != nil {
			return nil, fmt.Errorf("task: %s instance %d: %w", app.Name(), i, err)
		}
		if len(works) == 0 {
			return nil, merr.Errorf(merr.ErrBadApp, "task: %s instance %d has no tasks", app.Name(), i)
		}
		if err := pol.BeforeInstance(ctx, i, mem, works); err != nil {
			return nil, fmt.Errorf("task: policy %s before instance %d: %w", pol.Name(), i, err)
		}
		eng := &hm.Engine{
			Mem:         mem,
			Policy:      pol,
			StepSec:     opts.StepSec,
			IntervalSec: opts.IntervalSec,
			MemoryMode:  pol.MemoryMode(),
			Debug:       opts.Debug,
			Obs:         opts.Observer,
		}
		rr, err := eng.Run(ctx, works)
		if err != nil {
			return nil, fmt.Errorf("task: %s instance %d under %s: %w", app.Name(), i, pol.Name(), err)
		}
		for _, s := range rr.Bandwidth {
			s.Time += res.TotalTime
			res.Bandwidth = append(res.Bandwidth, s)
		}
		res.Instances = append(res.Instances, InstanceResult{
			TaskTimes: rr.TaskTimes,
			Makespan:  rr.Makespan,
			Counters:  rr.Counters,
		})
		observeInstance(opts.Observer, res.TotalTime, i, rr)
		res.TotalTime += rr.Makespan
		if err := pol.AfterInstance(ctx, i, mem, rr); err != nil {
			return nil, fmt.Errorf("task: policy %s after instance %d: %w", pol.Name(), i, err)
		}
	}
	res.MigratedToDRAM = mem.MigratedToDRAM
	if reg := opts.Observer; reg != nil {
		reg.Gauge("run.total_seconds").Set(res.TotalTime)
		reg.Gauge("run.migrated_pages.to_dram").Set(float64(res.MigratedToDRAM))
	}
	return res, nil
}

// observeInstance records one instance's outcome at its global sync point:
// per-task busy/stall/wall accumulators (Figure 5's load-balance view —
// stall includes both memory stalls and the barrier wait behind the
// slowest task), the makespan histogram, and — when the event log is on —
// one chrome-trace span per instance and per task at the instance's
// simulated-time offset t0.
func observeInstance(reg *obs.Registry, t0 float64, instance int, rr *hm.RunResult) {
	if reg == nil {
		return
	}
	for _, c := range rr.Counters {
		busy := c.FinishTime - c.StallSeconds
		stall := c.StallSeconds + (rr.Makespan - c.FinishTime)
		reg.Counter("task." + c.Name + ".busy_seconds").Add(busy)
		reg.Counter("task." + c.Name + ".stall_seconds").Add(stall)
		reg.Counter("task." + c.Name + ".wall_seconds").Add(rr.Makespan)
	}
	reg.Histogram("run.instance_makespan_seconds").Observe(rr.Makespan)
	reg.Counter("run.instances").Inc()
	if !reg.EventsEnabled() {
		return
	}
	reg.Emit(obs.Event{
		Name: "instance",
		Ts:   t0 * 1e6,
		Dur:  rr.Makespan * 1e6,
		Args: map[string]any{"instance": instance, "tasks": len(rr.Counters)},
	})
	for ti, c := range rr.Counters {
		reg.Emit(obs.Event{
			Name: "task:" + c.Name,
			Ts:   t0 * 1e6,
			Dur:  c.FinishTime * 1e6,
			Tid:  ti + 1,
			Args: map[string]any{
				"instance": instance,
				"stall_s":  c.StallSeconds,
				"r_dram":   c.RDRAM(),
			},
		})
	}
}

// Base is a no-op Policy to embed; zero value implements every method
// except Name.
type Base struct{}

// Setup implements Policy.
func (Base) Setup(ctx context.Context, mem *hm.Memory, app App) error { return nil }

// BeforeInstance implements Policy.
func (Base) BeforeInstance(ctx context.Context, i int, mem *hm.Memory, works []hm.TaskWork) error {
	return nil
}

// Tick implements hm.Policy: policies without runtime migration do
// nothing at engine ticks.
func (Base) Tick(now float64, mem *hm.Memory, tasks []hm.TaskStatus) {}

// MemoryMode implements Policy.
func (Base) MemoryMode() bool { return false }

// AfterInstance implements Policy.
func (Base) AfterInstance(ctx context.Context, i int, mem *hm.Memory, res *hm.RunResult) error {
	return nil
}
