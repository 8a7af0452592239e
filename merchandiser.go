// Package merchandiser is a Go reproduction of "Merchandiser: Data
// Placement on Heterogeneous Memory for Task-Parallel HPC Applications
// with Load-Balance Awareness" (Xie, Liu, Li, Li — PPoPP 2023).
//
// It bundles a two-tier heterogeneous-memory simulator (DRAM + persistent
// memory), a task-parallel runtime with global synchronization points, the
// paper's data-placement baselines (Optane Memory Mode, an Intel
// MemoryOptimizer-style daemon, the application-specific Sparta and
// WarpX-PM policies), and Merchandiser itself: task-semantic profiling,
// input-aware memory-access estimation (Equation 1), learned performance
// modeling (Equation 2) and the greedy load-balancing partitioner
// (Algorithm 1).
//
// # Quick start
//
//	sys, err := merchandiser.NewSystem(merchandiser.DefaultSpec(), merchandiser.TrainQuick)
//	res, err := sys.Run(ctx, app, sys.Merchandiser(), merchandiser.Options{})
//
// where app implements merchandiser.App (see AppBuilder for a declarative
// way to define one, or internal/apps for the paper's five applications).
//
// # Sessions and concurrency
//
// Policies carry per-run mutable state (profiles, α refiners, hotness
// scores), so the policy helpers on System return a PolicyFactory rather
// than a policy: every Run and every Compare row materializes a fresh
// policy from its factory. One System is therefore safe for any number of
// concurrent Run/Compare calls (the trained artifacts it holds are
// read-only after construction).
//
// Every run takes a context.Context; cancellation aborts the simulation
// at the next engine tick with an error satisfying
// errors.Is(err, context.Canceled). Pass context.Background() for the
// historical non-cancelable behavior — outputs are byte-identical.
package merchandiser

import (
	"context"

	"merchandiser/internal/baseline"
	"merchandiser/internal/core"
	"merchandiser/internal/hm"
	"merchandiser/internal/model"
	"merchandiser/internal/obs"
	"merchandiser/internal/task"
)

// Re-exported core types. The internal packages hold the implementations;
// these aliases are the supported public surface.
type (
	// App is a task-parallel application: long-lived objects plus a
	// sequence of task instances separated by global synchronizations.
	App = task.App
	// Policy is a data-placement policy for a run. A Policy instance holds
	// per-run state; obtain a fresh one per run via a PolicyFactory.
	Policy = task.Policy
	// Options tunes the simulation (time step, policy interval).
	Options = task.Options
	// Result is a full application run's outcome.
	Result = task.Result
	// SystemSpec describes the simulated platform.
	SystemSpec = hm.SystemSpec
	// TaskWork is one task's work for one instance.
	TaskWork = hm.TaskWork
	// Phase is a synchronization-free segment of a task.
	Phase = hm.Phase
	// PhaseAccess is one object access stream within a phase.
	PhaseAccess = hm.PhaseAccess
	// Memory is the simulated two-tier main memory.
	Memory = hm.Memory
	// Object is a registered data object.
	Object = hm.Object
	// Observer collects a run's metrics and (optionally) its event log;
	// attach one via Options.Observer. A nil Observer disables
	// observability at zero cost.
	Observer = obs.Registry
	// Metrics is a point-in-time snapshot of an Observer's metric state,
	// byte-stable under its WriteJSON for identical runs.
	Metrics = obs.Snapshot
	// TraceEvent is one chrome-trace-compatible record of an Observer's
	// event log.
	TraceEvent = obs.Event
)

// NewObserver returns an empty metrics registry. Call EnableEvents on it
// to additionally collect the chrome-trace event log, pass it as
// Options.Observer, and read results with Snapshot(false) (deterministic
// view) or Events().
func NewObserver() *Observer { return obs.New() }

// Tier identifiers, re-exported.
const (
	DRAM = hm.DRAM
	PM   = hm.PM
)

// DefaultSpec returns the scaled-down analogue of the paper's platform
// (192 MB DRAM : 1.5 GB PM at the paper's 1:8 ratio and Optane-like
// latency/bandwidth asymmetry).
func DefaultSpec() SystemSpec { return hm.DefaultSpec() }

// TrainLevel selects how much effort System construction spends training
// the correlation function f(·).
type TrainLevel int

const (
	// TrainQuick trains on a reduced corpus — seconds, accuracy in the
	// high 80s. Good for examples and tests.
	TrainQuick TrainLevel = iota
	// TrainFull trains on the paper-sized corpus (281 regions, 10
	// placements).
	TrainFull
	// TrainNone skips training; Equation 2 degrades to linear
	// interpolation between the PM-only and DRAM-only bounds.
	TrainNone
)

// String names the level as it appears in artifact provenance metadata.
func (l TrainLevel) String() string {
	switch l {
	case TrainQuick:
		return "quick"
	case TrainFull:
		return "full"
	case TrainNone:
		return "none"
	default:
		return "unknown"
	}
}

// System bundles a platform spec with the offline artifacts Merchandiser
// needs (the trained correlation function). Construct once, run many apps
// — concurrently if desired: the artifacts are read-only after
// construction and every run builds its own policy and memory.
type System struct {
	Spec SystemSpec
	Perf *model.PerfModel
	// TrainedR2 is the held-out R² of the correlation function (0 for
	// TrainNone).
	TrainedR2 float64
	// Meta is the training provenance carried into snapshots: seed, level,
	// sample count and training-feature statistics. Restore preserves it
	// verbatim.
	Meta SystemMeta
}

// NewSystem builds a System for the spec, training the correlation
// function at the requested level (the paper's offline step 1) with the
// default TrainConfig — see NewSystemConfig in builder.go for the knobs
// and for a cancelable form.
func NewSystem(spec SystemSpec, level TrainLevel) (*System, error) {
	return NewSystemConfig(context.Background(), spec, TrainConfig{Level: level})
}

// PolicyFactory mints a fresh Policy per run. Factories are stateless and
// safe for concurrent use; the policies they build are not — never share
// one Policy instance across runs.
type PolicyFactory interface {
	// Name identifies the policy this factory builds.
	Name() string
	// New returns a fresh policy instance.
	New() (Policy, error)
}

// NewFactory adapts a constructor function into a PolicyFactory — the
// hook for custom policies (see examples/extensibility).
func NewFactory(name string, make func() (Policy, error)) PolicyFactory {
	return factoryFunc{name: name, make: make}
}

type factoryFunc struct {
	name string
	make func() (Policy, error)
}

func (f factoryFunc) Name() string         { return f.name }
func (f factoryFunc) New() (Policy, error) { return f.make() }

// Merchandiser returns a factory for the paper's policy, wired with this
// system's trained performance model.
func (s *System) Merchandiser() PolicyFactory {
	return NewFactory("Merchandiser", func() (Policy, error) {
		return core.New(core.Config{Spec: s.Spec, Perf: s.Perf}), nil
	})
}

// MerchandiserWithObserver returns a factory for the paper's policy wired
// to record its planner and migration-gate metrics into reg (pass the
// same registry as Options.Observer to get runtime, engine and planner
// metrics in one place).
func (s *System) MerchandiserWithObserver(reg *Observer) PolicyFactory {
	return NewFactory("Merchandiser", func() (Policy, error) {
		return core.New(core.Config{Spec: s.Spec, Perf: s.Perf, Obs: reg}), nil
	})
}

// ReplanMode selects the epoch-based re-planning trigger for
// MerchandiserReplan: off (the historical plan-once behavior) or drift
// (re-plan when observed progress projects the makespan past the
// predicted one by more than the threshold).
type ReplanMode = core.ReplanMode

// Re-planning trigger modes.
const (
	ReplanOff   = core.ReplanOff
	ReplanDrift = core.ReplanDrift
)

// ParseReplanMode parses "off" or "drift" (empty = off).
func ParseReplanMode(s string) (ReplanMode, error) { return core.ParseReplanMode(s) }

// ReplanConfig tunes the epoch lifecycle: trigger mode and epoch length
// in policy ticks. Drift mode re-plans when the projection drifts more
// than 25% past the prediction, at most 8 times per instance. The zero
// value means off — byte-identical to the plan-once policy.
type ReplanConfig = core.ReplanConfig

// EpochReport records one epoch boundary's drift decision (and, when a
// re-plan was applied, its migration cost); read them from
// MerchandiserReplan policies via core's EpochReports.
type EpochReport = core.EpochReport

// MerchandiserReplan returns a factory for the paper's policy extended
// with the epoch-based re-planning lifecycle: within each instance the
// policy snapshots progress every ReplanConfig.EpochTicks policy ticks,
// measures predicted-vs-observed makespan drift, and — per the
// configured mode — re-invokes the min-makespan planner on the residual
// workload, applying the delta as migrations only when the projected win
// exceeds the migration cost. With cfg.Mode == ReplanOff the factory is
// byte-identical to Merchandiser().
func (s *System) MerchandiserReplan(cfg ReplanConfig) PolicyFactory {
	return NewFactory("Merchandiser", func() (Policy, error) {
		return core.New(core.Config{Spec: s.Spec, Perf: s.Perf, Replan: cfg}), nil
	})
}

// PMOnly returns a factory for the slow-tier-only baseline policy.
func (s *System) PMOnly() PolicyFactory {
	return NewFactory("PM-only", func() (Policy, error) {
		return baseline.PMOnly{}, nil
	})
}

// MemoryMode returns a factory for the hardware-managed DRAM-cache
// baseline (Optane Memory Mode).
func (s *System) MemoryMode() PolicyFactory {
	return NewFactory("MemoryMode", func() (Policy, error) {
		return baseline.MemoryMode{}, nil
	})
}

// MemoryOptimizer returns a factory for the application-agnostic
// hot-page-migration baseline.
func (s *System) MemoryOptimizer() PolicyFactory {
	return NewFactory("MemoryOptimizer", func() (Policy, error) {
		return baseline.NewMemoryOptimizer(baseline.DaemonConfig{}), nil
	})
}

// Sparta returns a factory for the application-specific static policy
// that pins the named objects (substring match) in DRAM.
func (s *System) Sparta(priorityObjects ...string) PolicyFactory {
	return NewFactory("Sparta", func() (Policy, error) {
		return &baseline.Sparta{Priority: priorityObjects}, nil
	})
}

// WarpXPM returns a factory for the oracle manual-placement policy.
func (s *System) WarpXPM() PolicyFactory {
	return NewFactory("WarpX-PM", func() (Policy, error) {
		return baseline.NewWarpXPM(s.Spec.LLCBytes, 1), nil
	})
}

// Run executes the app under a fresh policy minted from f, on a fresh
// memory with this system's spec. Cancel ctx to abort: the run stops at
// the next engine tick and the error satisfies
// errors.Is(err, context.Canceled).
func (s *System) Run(ctx context.Context, app App, f PolicyFactory, opts Options) (*Result, error) {
	se, err := s.NewSession(f)
	if err != nil {
		return nil, err
	}
	return se.Run(ctx, app, opts)
}
