// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7): Table 1 (pattern detection), Table 2
// (applications and inputs), Figure 3 (NWChem-TC phase sensitivity),
// Figure 4 (overall performance), Figure 5 (task-time variance / load
// balance), Figure 6 (WarpX bandwidth timelines), Table 3 (statistical
// model selection), Figure 7 (event-count ablation) and Table 4
// (end-to-end prediction accuracy), plus the §7.3 α study and the design
// ablations DESIGN.md calls out.
//
// Absolute numbers come from the simulator, not the authors' Optane
// testbed; the shapes (who wins, by what rough factor, where crossovers
// fall) are the reproduction targets. EXPERIMENTS.md records
// paper-vs-measured for every experiment.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"merchandiser/internal/apps"
	"merchandiser/internal/baseline"
	"merchandiser/internal/core"
	"merchandiser/internal/corpus"
	"merchandiser/internal/hm"
	"merchandiser/internal/merr"
	"merchandiser/internal/model"
	"merchandiser/internal/obs"
	"merchandiser/internal/policyreg"
	"merchandiser/internal/stats"
	"merchandiser/internal/task"
)

// Config tunes experiment scale.
type Config struct {
	// Quick shrinks applications and the training corpus for fast runs
	// (benchmarks, CI); full scale reproduces the reported numbers.
	Quick bool
	Seed  int64
	// StepSec overrides the simulation step (default 2 ms).
	StepSec float64
	// Workers bounds the concurrency of corpus generation, model fitting
	// and the evaluation matrix; 0 uses runtime.NumCPU(). Results are
	// identical for any value — every run is seeded and isolated.
	Workers int
	// Apps restricts the evaluation matrix to the named applications
	// (empty = AppNames). Order follows AppNames regardless of the filter's
	// order, so filtered dumps stay deterministic.
	Apps []string
	// Policies restricts the evaluation matrix to the named policies
	// (empty = PolicyNames plus per-app extras). App-specific extras run
	// only when explicitly listed or when the filter is empty.
	Policies []string
	// Obs, when non-nil, enables observability: the pipeline registry
	// receives train/eval wall timers and training stats, and every
	// (app, policy) cell collects its own registry, snapshotted into
	// AppRun.Metrics. Cells run single-threaded, so per-cell metrics are
	// deterministic for any Workers value.
	Obs *obs.Registry
	// Trace additionally enables per-cell event logs (AppRun.Events);
	// requires Obs.
	Trace bool
	// Replan configures Merchandiser's epoch-based re-planning lifecycle
	// for every cell that builds it (the -replan knob). The zero value
	// (off) keeps all outputs byte-identical to the plan-once evaluation.
	Replan core.ReplanConfig
}

func (c Config) step() float64 {
	if c.StepSec > 0 {
		return c.StepSec
	}
	return 0.002
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.NumCPU()
}

// evalApps returns the applications the matrix covers, in AppNames order.
func (c Config) evalApps() []string {
	return filterNames(AppNames, c.Apps)
}

// evalPolicies returns the policies to run for one application: the
// standard comparison set plus the app's extras, narrowed by the filter.
func (c Config) evalPolicies(app string) []string {
	all := append(append([]string(nil), PolicyNames...), extraPolicies(app)...)
	return filterNames(all, c.Policies)
}

// filterNames keeps the members of all that appear in want (all of them
// when want is empty), preserving all's order.
func filterNames(all, want []string) []string {
	if len(want) == 0 {
		return all
	}
	keep := map[string]bool{}
	for _, w := range want {
		keep[w] = true
	}
	var out []string
	for _, n := range all {
		if keep[n] {
			out = append(out, n)
		}
	}
	return out
}

// Artifacts carries the offline products shared by experiments: the
// platform spec and the trained correlation function.
type Artifacts struct {
	Spec    hm.SystemSpec
	Perf    *model.PerfModel
	Samples []corpus.Sample // the training corpus, reused by Table 3 / Fig 7
	TestR2  float64

	// SampleCount is the recorded training-corpus size for artifacts
	// restored from a checkpoint, where Samples itself is absent; it is
	// ignored whenever Samples is populated.
	SampleCount int
}

// trainSpec is the compact platform used for corpus generation (f depends
// on workload characteristics, not on absolute capacities).
func trainSpec(spec hm.SystemSpec) hm.SystemSpec {
	s := spec
	s.Tiers[hm.DRAM].CapacityBytes = 64 << 20
	s.Tiers[hm.PM].CapacityBytes = 512 << 20
	s.LLCBytes = 1 << 20
	return s
}

// Prepare trains the correlation function (offline step 1) and returns
// the shared artifacts. It runs the same training stage as RunPipeline
// — corpus simulation streaming into the paced boosting fitter — on a
// slot pool of its own, so its model is byte-identical to the one
// RunPipeline trains. Cancellation via ctx unwinds through the corpus
// worker pool and the boosting stages, returning an error satisfying
// errors.Is(err, context.Canceled).
func Prepare(ctx context.Context, cfg Config) (*Artifacts, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	art := &Artifacts{Spec: experimentSpec(), Perf: &model.PerfModel{}}
	if err := train(ctx, art, cfg, newSlotPool(cfg.workers())); err != nil {
		return nil, err
	}
	return art, nil
}

// AppNames is the evaluation order of Table 2 / Figure 4.
var AppNames = []string{"SpGEMM", "WarpX", "BFS", "DMRG", "NWChem-TC"}

// buildAppHook lets tests substitute application construction (e.g. to
// inject failures); nil means BuildApp's own switch.
var buildAppHook func(name string, cfg Config) (task.App, error)

// BuildApp constructs one of the five applications at the configured
// scale. Each call re-runs the app's real computation, so callers reuse
// the result across policies where runs are sequential.
func BuildApp(name string, cfg Config) (task.App, error) {
	if buildAppHook != nil {
		return buildAppHook(name, cfg)
	}
	return buildAppDefault(name, cfg)
}

// buildAppDefault is the unhooked construction path (hooks may fall
// through to it).
func buildAppDefault(name string, cfg Config) (task.App, error) {
	seed := cfg.Seed + 10
	switch name {
	case "SpGEMM":
		c := apps.SpGEMMConfig{Seed: seed}
		if cfg.Quick {
			c = apps.SpGEMMConfig{Tasks: 6, Scale: 11, EdgeFactor: 8, Instances: 4, Rep: 8, Seed: seed}
		}
		return apps.NewSpGEMM(c)
	case "WarpX":
		c := apps.WarpXConfig{Seed: seed}
		if cfg.Quick {
			c = apps.WarpXConfig{Tasks: 8, GridX: 96, GridY: 64, Particles: 200_000, Instances: 4, Rep: 120, Seed: seed}
		}
		return apps.NewWarpX(c)
	case "BFS":
		c := apps.BFSConfig{Seed: seed}
		if cfg.Quick {
			c = apps.BFSConfig{Tasks: 6, Scale: 14, EdgeFactor: 12, Instances: 4, Rep: 30, Seed: seed}
		}
		return apps.NewBFS(c)
	case "DMRG":
		c := apps.DMRGConfig{Seed: seed}
		if cfg.Quick {
			c = apps.DMRGConfig{Ranks: 4, BlockDim: 512, Sweeps: 4, Seed: seed}
		}
		return apps.NewDMRG(c)
	case "NWChem-TC":
		c := apps.NWChemTCConfig{Seed: seed}
		if cfg.Quick {
			c = apps.NWChemTCConfig{Tasks: 8, Tiles: 32, TileDim: 16, Instances: 4, Seed: seed}
		}
		return apps.NewNWChemTC(c)
	default:
		return nil, fmt.Errorf("experiments: unknown application %q", name)
	}
}

// PolicyNames is the comparison order of Figure 4.
var PolicyNames = []string{"PM-only", "MemoryMode", "MemoryOptimizer", "Merchandiser"}

// buildPolicy constructs one fresh policy instance through the shared
// name-based registry (internal/policyreg). reg is the cell's metrics
// registry (nil when observability is off); only Merchandiser consumes
// it. The registry's builtins reproduce the historical constructions and
// seed offsets exactly, so evaluation outputs are unchanged.
func buildPolicy(name string, art *Artifacts, cfg Config, reg *obs.Registry) (task.Policy, error) {
	pol, err := policyreg.Build(name, policyreg.Params{
		Spec:   art.Spec,
		Perf:   art.Perf,
		Seed:   cfg.Seed,
		Obs:    reg,
		Replan: cfg.Replan,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return pol, nil
}

// AppRun is one (application, policy) execution.
type AppRun struct {
	App, Policy string
	TotalTime   float64
	TaskMatrix  [][]float64
	ACV         float64
	Bandwidth   []hm.BWSample
	Migrated    uint64
	// MigMax/MigMin is the per-task migration spread (§7.1's up-to-21.4x
	// observation); populated for daemon-based policies.
	MigMax, MigMin uint64
	// Merch is non-nil for Merchandiser runs (predictions, α, gate
	// statistics).
	Merch *core.Merchandiser
	// Metrics is the cell's deterministic registry snapshot (nil unless
	// Config.Obs enabled observability).
	Metrics *obs.Snapshot
	// Events is the cell's event log (nil unless Config.Trace).
	Events []obs.Event
}

// Eval is the full 5-apps × policies evaluation matrix shared by
// Figures 4, 5 and 6.
type Eval struct {
	Runs map[string]map[string]*AppRun // app → policy → run
}

// extraPolicies lists the application-specific baselines per app (§7.1's
// Sparta and WarpX-PM comparisons).
func extraPolicies(app string) []string {
	switch app {
	case "SpGEMM":
		return []string{"Sparta"}
	case "WarpX":
		return []string{"WarpX-PM"}
	default:
		return nil
	}
}

// RunEvaluation executes every application under every policy. The
// matrix runs as one lane per application: each lane builds its seeded
// application instance once (BuildApp re-runs the app's real
// computation, historically the dominant cost of a pooled per-cell
// schedule) and then runs that app's policy cells sequentially — app
// state is not shareable across simultaneous runs, but reuse across
// sequential runs has always been safe. Lanes share a slot pool of
// cfg.Workers permits, so up to Workers applications evaluate
// concurrently. Results are deterministic regardless of scheduling
// because every run is seeded and isolated. All per-run errors are
// surfaced, joined in matrix order — one failing run does not mask
// another's error.
// Cancellation: once ctx is done, lanes stop claiming slots and
// in-flight runs abort at the next engine tick; RunEvaluation then
// returns an error satisfying errors.Is(err, context.Canceled) with no
// goroutine left behind.
func RunEvaluation(ctx context.Context, art *Artifacts, cfg Config) (*Eval, error) {
	return runEvaluationGated(ctx, art, cfg, newSlotPool(cfg.workers()), nil)
}

// runEvaluationGated is the lane scheduler behind RunEvaluation and
// RunPipeline. slots is the shared worker-slot pool (a lane holds one
// permit while building or running, never while waiting). modelReady,
// when non-nil, gates model-consuming policies (policyreg.UsesModel):
// their cells wait for the channel to close, while pure-baseline cells
// launch immediately — the "eval cells start as their dependency
// resolves" half of the pace-car pipeline.
func runEvaluationGated(ctx context.Context, art *Artifacts, cfg Config, slots slotPool, modelReady <-chan struct{}) (*Eval, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer cfg.Obs.WallTimer("pipeline.eval_seconds").Start()()
	apps := cfg.evalApps()
	eval := &Eval{Runs: map[string]map[string]*AppRun{}}
	for _, appName := range apps {
		eval.Runs[appName] = map[string]*AppRun{}
	}

	// Cells keep their canonical matrix indices so the joined error order
	// is independent of lane scheduling.
	type laneCell struct {
		policy string
		idx    int
	}
	lanes := make([][]laneCell, len(apps))
	total := 0
	for ai, appName := range apps {
		for _, polName := range cfg.evalPolicies(appName) {
			lanes[ai] = append(lanes[ai], laneCell{polName, total})
			total++
		}
	}
	errs := make([]error, total)

	acquire := func() bool {
		select {
		case <-slots:
			return true
		case <-ctx.Done():
			return false
		}
	}
	var wg sync.WaitGroup
	for ai, appName := range apps {
		if len(lanes[ai]) == 0 {
			continue
		}
		wg.Add(1)
		go func(appName string, cells []laneCell) {
			defer wg.Done()
			if !acquire() {
				return
			}
			held := true
			defer func() {
				if held {
					slots <- struct{}{}
				}
			}()
			app, err := BuildApp(appName, cfg)
			if err != nil {
				for _, c := range cells {
					errs[c.idx] = err
				}
				return
			}
			ordered := cells
			if modelReady != nil {
				// Model-free cells first: they have no dependency to wait
				// on, so they overlap with corpus building and fitting.
				ordered = append([]laneCell(nil), cells...)
				sort.SliceStable(ordered, func(i, j int) bool {
					return !policyreg.UsesModel(ordered[i].policy) && policyreg.UsesModel(ordered[j].policy)
				})
			}
			waited := false
			for _, c := range ordered {
				if ctx.Err() != nil {
					return
				}
				if modelReady != nil && !waited && policyreg.UsesModel(c.policy) {
					// Hand the slot back while waiting: the fitter needs it
					// to finish the very model this cell is blocked on.
					slots <- struct{}{}
					held = false
					select {
					case <-modelReady:
					case <-ctx.Done():
						return
					}
					if !acquire() {
						return
					}
					held = true
					waited = true
				}
				run, err := runOne(ctx, app, appName, c.policy, art, cfg)
				if err != nil {
					errs[c.idx] = err
					continue
				}
				eval.Runs[appName][c.policy] = run
			}
		}(appName, lanes[ai])
	}
	wg.Wait()
	if err := merr.FromContext(ctx, "experiments: evaluation canceled"); err != nil {
		return nil, err
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return eval, nil
}

func runOne(ctx context.Context, app task.App, appName, polName string, art *Artifacts, cfg Config) (*AppRun, error) {
	// Each cell collects into its own registry: the cell itself is
	// single-threaded, so its metrics are deterministic no matter how the
	// matrix is scheduled across workers.
	var reg *obs.Registry
	if cfg.Obs != nil {
		reg = obs.New()
		if cfg.Trace {
			reg.EnableEvents()
		}
	}
	pol, err := buildPolicy(polName, art, cfg, reg)
	if err != nil {
		return nil, err
	}
	res, err := task.Run(ctx, app, art.Spec, pol, task.Options{StepSec: cfg.step(), IntervalSec: 0.05, Observer: reg})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s under %s: %w", appName, polName, err)
	}
	run := &AppRun{
		App: appName, Policy: polName,
		TotalTime:  res.TotalTime,
		TaskMatrix: res.TaskTimeMatrix(),
		ACV:        stats.ACV(res.TaskTimeMatrix()),
		Bandwidth:  res.Bandwidth,
		Migrated:   res.MigratedToDRAM,
	}
	switch p := pol.(type) {
	case *core.Merchandiser:
		run.Merch = p
		run.MigMax, run.MigMin = p.Daemon().MigrationSpread()
	case *baseline.MemoryOptimizer:
		run.MigMax, run.MigMin = p.Daemon().MigrationSpread()
	}
	if reg != nil {
		reg.Gauge("eval.acv").Set(run.ACV)
		run.Metrics = reg.Snapshot(false)
		if cfg.Trace {
			run.Events = reg.Events()
		}
	}
	return run, nil
}

// Speedup returns run time ratio PM-only/policy for one app.
func (e *Eval) Speedup(app, policy string) float64 {
	pm := e.Runs[app]["PM-only"]
	p := e.Runs[app][policy]
	if pm == nil || p == nil || p.TotalTime == 0 {
		return 0
	}
	return pm.TotalTime / p.TotalTime
}

// MeanSpeedup averages a policy's speedup across the five applications.
func (e *Eval) MeanSpeedup(policy string) float64 {
	var s float64
	n := 0
	for _, app := range AppNames {
		if v := e.Speedup(app, policy); v > 0 {
			s += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// sortedPolicies returns the policies present for an app in render order.
func (e *Eval) sortedPolicies(app string) []string {
	var out []string
	for _, p := range PolicyNames {
		if _, ok := e.Runs[app][p]; ok {
			out = append(out, p)
		}
	}
	var extra []string
	for p := range e.Runs[app] {
		found := false
		for _, q := range out {
			if q == p {
				found = true
			}
		}
		if !found {
			extra = append(extra, p)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}

func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
