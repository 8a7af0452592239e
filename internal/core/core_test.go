package core

import (
	"context"
	"math"
	"testing"

	"merchandiser/internal/access"
	"merchandiser/internal/baseline"
	"merchandiser/internal/hm"
	"merchandiser/internal/model"
	"merchandiser/internal/stats"
	"merchandiser/internal/task"
)

// testSpec: 128 DRAM pages vs 2048 PM pages, small LLC so working sets
// reach memory.
func testSpec() hm.SystemSpec {
	s := hm.DefaultSpec()
	s.Tiers[hm.DRAM].CapacityBytes = 128 * 4096
	s.Tiers[hm.PM].CapacityBytes = 2048 * 4096
	s.LLCBytes = 32 << 10
	return s
}

// imbalanceApp reproduces the paper's core pathology: task "streamy"
// issues 12x more program accesses (and ~1.5x more main-memory accesses)
// but with a cheap, prefetch-friendly streaming pattern, while task
// "randy" issues fewer accesses with an expensive random pattern over a
// big object — randy is the true bottleneck, yet a task-agnostic profiler
// sees streamy's pages as hottest.
type imbalanceApp struct {
	streamObj, randObj *hm.Object
	instances          int
}

func (a *imbalanceApp) Name() string      { return "imbalance" }
func (a *imbalanceApp) NumInstances() int { return a.instances }

func (a *imbalanceApp) Setup(mem *hm.Memory) error {
	var err error
	if a.streamObj, err = mem.Alloc("S", "streamy", 600*4096, hm.PM); err != nil {
		return err
	}
	if a.randObj, err = mem.Alloc("R", "randy", 600*4096, hm.PM); err != nil {
		return err
	}
	return nil
}

func (a *imbalanceApp) Instance(i int, mem *hm.Memory) ([]hm.TaskWork, error) {
	// Mild input variation across instances (±20%).
	scale := 1 + 0.2*math.Sin(float64(i))
	return []hm.TaskWork{
		{
			Name: "streamy",
			Phases: []hm.Phase{{
				Name:           "scan",
				ComputeSeconds: 0.01,
				Accesses: []hm.PhaseAccess{{
					Obj:             a.streamObj,
					Pattern:         access.Pattern{Kind: access.Stream, ElemSize: 8},
					ProgramAccesses: 1.2e8 * scale,
				}},
			}},
		},
		{
			Name: "randy",
			Phases: []hm.Phase{{
				Name:           "gather",
				ComputeSeconds: 0.01,
				Accesses: []hm.PhaseAccess{{
					Obj:             a.randObj,
					Pattern:         access.Pattern{Kind: access.Random, ElemSize: 8},
					ProgramAccesses: 1e7 * scale,
					Seed:            7,
				}},
			}},
		},
	}, nil
}

func runPolicy(t *testing.T, pol task.Policy) *task.Result {
	t.Helper()
	app := &imbalanceApp{instances: 6}
	res, err := task.Run(context.Background(), app, testSpec(), pol, task.Options{StepSec: 0.001, IntervalSec: 0.02, Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMerchandiserBeatsTaskAgnosticPGO(t *testing.T) {
	pmOnly := runPolicy(t, baseline.PMOnly{})
	memOpt := runPolicy(t, baseline.NewMemoryOptimizer(baseline.DaemonConfig{Seed: 1}))
	merch := New(Config{Spec: testSpec(), Daemon: baseline.DaemonConfig{Seed: 1}, Seed: 1})
	merchRes := runPolicy(t, merch)

	t.Logf("PM-only=%.3f MemoryOptimizer=%.3f Merchandiser=%.3f",
		pmOnly.TotalTime, memOpt.TotalTime, merchRes.TotalTime)

	if merchRes.TotalTime >= pmOnly.TotalTime {
		t.Fatalf("Merchandiser (%v) should beat PM-only (%v)", merchRes.TotalTime, pmOnly.TotalTime)
	}
	if merchRes.TotalTime >= memOpt.TotalTime {
		t.Fatalf("Merchandiser (%v) should beat MemoryOptimizer (%v) on this workload",
			merchRes.TotalTime, memOpt.TotalTime)
	}
	// Load balance: skip instance 0 (profiling, ungated).
	merchCV := stats.ACV(merchRes.TaskTimeMatrix()[1:])
	moCV := stats.ACV(memOpt.TaskTimeMatrix()[1:])
	if merchCV >= moCV {
		t.Fatalf("Merchandiser A.C.V (%v) should be below MemoryOptimizer's (%v)", merchCV, moCV)
	}
	// The gate must actually have fired.
	if merch.GateBlocked() == 0 {
		t.Fatal("gate never blocked a migration — task semantics unused")
	}
	if merch.LastPlan == nil {
		t.Fatal("no Algorithm 1 plan recorded")
	}
}

func TestMerchandiserPlanTargetsBottleneck(t *testing.T) {
	merch := New(Config{Spec: testSpec(), Daemon: baseline.DaemonConfig{Seed: 2}, Seed: 2})
	runPolicy(t, merch)
	plan := merch.LastPlan
	if plan == nil {
		t.Fatal("no plan")
	}
	// Task order in works: streamy=0, randy=1. randy is the bottleneck and
	// must receive the (much) larger DRAM goal ratio.
	if plan.GoalRatio[1] <= plan.GoalRatio[0] {
		t.Fatalf("bottleneck goal %v should exceed streaming task's %v",
			plan.GoalRatio[1], plan.GoalRatio[0])
	}
}

func TestMerchandiserPredictionsTrackMeasurements(t *testing.T) {
	merch := New(Config{Spec: testSpec(), Daemon: baseline.DaemonConfig{Seed: 3}, Seed: 3})
	runPolicy(t, merch)
	if len(merch.Predictions) == 0 {
		t.Fatal("no predictions recorded")
	}
	var relErr []float64
	for _, p := range merch.Predictions {
		if p.Measured <= 0 {
			t.Fatalf("prediction for %s/%d has no measurement", p.Task, p.Instance)
		}
		relErr = append(relErr, math.Abs(p.Predicted-p.Measured)/p.Measured)
	}
	mean := stats.Mean(relErr)
	// The paper reports >= 71% accuracy (Table 4); with a linear f and
	// planning-vs-achieved divergence allow a loose bound here.
	if mean > 0.6 {
		t.Fatalf("mean prediction error %v too large", mean)
	}
}

func TestMerchandiserAlphaRefinementActive(t *testing.T) {
	merch := New(Config{Spec: testSpec(), Daemon: baseline.DaemonConfig{Seed: 4}, Seed: 4})
	runPolicy(t, merch)
	// randy's object R is random-pattern: it must have a refiner with
	// observations.
	var found bool
	for _, tp := range merch.profiles {
		for _, op := range tp.objects {
			if op.name == "R" {
				found = true
				if op.refiner == nil {
					t.Fatal("random-pattern object lacks a refiner")
				}
				if op.refiner.Observations() == 0 {
					t.Fatal("refiner never observed an instance")
				}
			}
			if op.name == "S" && op.refiner != nil {
				t.Fatal("stream object should use offline α, not a refiner")
			}
		}
	}
	if !found {
		t.Fatal("object R not profiled")
	}
}

func TestMerchandiserTaskCountMismatch(t *testing.T) {
	merch := New(Config{Spec: testSpec()})
	mem := hm.NewMemory(testSpec())
	app := &imbalanceApp{instances: 2}
	if err := app.Setup(mem); err != nil {
		t.Fatal(err)
	}
	works, _ := app.Instance(0, mem)
	if err := merch.BeforeInstance(context.Background(), 0, mem, works); err != nil {
		t.Fatal(err)
	}
	if err := merch.BeforeInstance(context.Background(), 1, mem, works[:1]); err == nil {
		t.Fatal("task-count mismatch should error")
	}
}

// offlineAlpha must return AlphaOffline's value for every size asked, in
// any order, repeats included. Sizes off the cache-line grid and below the
// microbenchmark's cache give values other than 1, so a stale cache
// entry shows.
func TestOfflineAlphaMatchesModel(t *testing.T) {
	for _, p := range []access.Pattern{
		{Kind: access.Stencil, ElemSize: 8, Points: 5},
		{Kind: access.Stream, ElemSize: 4},
		{Kind: access.Strided, ElemSize: 8, StrideBytes: 256},
	} {
		op := &objProfile{pattern: p, sizeBase: 1000}
		distinct := map[float64]bool{}
		for _, sNew := range []float64{1000, 1300, 1300, 0, 70000, 1000} {
			got, want := op.offlineAlpha(sNew), model.AlphaOffline(p, op.sizeBase, sNew)
			if got != want {
				t.Fatalf("%v at %v bytes: offlineAlpha %v, AlphaOffline %v", p.Kind, sNew, got, want)
			}
			distinct[got] = true
		}
		if len(distinct) < 2 {
			t.Fatalf("%v: every size gives α %v; the sizes test nothing", p.Kind, op.alpha)
		}
	}
}
