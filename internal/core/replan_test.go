package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"merchandiser/internal/access"
	"merchandiser/internal/baseline"
	"merchandiser/internal/hm"
	"merchandiser/internal/task"
)

// shiftApp is the minimal phase-changing workload: two random-access
// tasks compete for DRAM. Until shiftAt, "steady" issues 4x the accesses
// of "blower", so the planner rightly gives steady most of the fast
// tier; from shiftAt on, blower's access count explodes by shiftFactor
// while object sizes stay constant — the §5.2 predictor (which scales
// profiled times by size ratios) keeps predicting the pre-shift balance,
// so the installed plan leaves the DRAM on the wrong task until a
// re-plan moves it.
type shiftApp struct {
	steadyObj, blowObj *hm.Object
	instances          int
	shiftAt            int
	shiftFactor        float64
}

func (a *shiftApp) Name() string      { return "shift" }
func (a *shiftApp) NumInstances() int { return a.instances }

func (a *shiftApp) Setup(mem *hm.Memory) error {
	// 150 + 150 pages against 128 DRAM pages: contended enough that where
	// the planner puts DRAM decides the makespan, small enough that a
	// re-plan can make either object mostly fast.
	var err error
	if a.steadyObj, err = mem.Alloc("S", "steady", 150*4096, hm.PM); err != nil {
		return err
	}
	if a.blowObj, err = mem.Alloc("B", "blower", 150*4096, hm.PM); err != nil {
		return err
	}
	return nil
}

func (a *shiftApp) Instance(i int, mem *hm.Memory) ([]hm.TaskWork, error) {
	blow := 1e7
	if i >= a.shiftAt {
		blow *= a.shiftFactor
	}
	return []hm.TaskWork{
		{
			Name: "steady",
			Phases: []hm.Phase{{
				Name:           "walk",
				ComputeSeconds: 0.01,
				Accesses: []hm.PhaseAccess{{
					Obj:             a.steadyObj,
					Pattern:         access.Pattern{Kind: access.Random, ElemSize: 8},
					ProgramAccesses: 4e7,
					Seed:            3,
				}},
			}},
		},
		{
			Name: "blower",
			Phases: []hm.Phase{{
				Name:           "gather",
				ComputeSeconds: 0.01,
				Accesses: []hm.PhaseAccess{{
					Obj:             a.blowObj,
					Pattern:         access.Pattern{Kind: access.Random, ElemSize: 8},
					ProgramAccesses: blow,
					Seed:            7,
				}},
			}},
		},
	}, nil
}

func runShift(t *testing.T, ctx context.Context, pol task.Policy) (*task.Result, error) {
	t.Helper()
	app := &shiftApp{instances: 4, shiftAt: 2, shiftFactor: 20}
	return task.Run(ctx, app, testSpec(), pol, task.Options{StepSec: 0.001, IntervalSec: 0.02, Debug: true})
}

// TestReplanDriftWithoutObserver is the nil-Observer contract: drift
// detection runs off the engine's internal progress counters, so
// re-planning must work with no metrics registry attached anywhere.
func TestReplanDriftWithoutObserver(t *testing.T) {
	m := New(Config{
		Spec: testSpec(), Daemon: baseline.DaemonConfig{Seed: 1}, Seed: 1,
		Replan: ReplanConfig{Mode: ReplanDrift, EpochTicks: 2},
	})
	if _, err := runShift(t, context.Background(), m); err != nil {
		t.Fatal(err)
	}
	if len(m.EpochReports) == 0 {
		t.Fatal("no epoch reports recorded — drift lifecycle never observed progress")
	}
	if m.Replans == 0 {
		t.Fatal("no re-plan applied on a workload whose behavior shifts mid-run")
	}
	maxDrift := 0.0
	for _, er := range m.EpochReports {
		if er.Drift > maxDrift {
			maxDrift = er.Drift
		}
	}
	if maxDrift < 0.25 {
		t.Fatalf("max drift %.3f never crossed the default threshold — workload not actually shifting", maxDrift)
	}
}

// TestReplanOffByteIdentical pins the gating contract: a Merchandiser
// configured with ReplanOff (even with an epoch length set) produces
// exactly the result of one with no replan config at all.
func TestReplanOffByteIdentical(t *testing.T) {
	plain := New(Config{Spec: testSpec(), Daemon: baseline.DaemonConfig{Seed: 1}, Seed: 1})
	resPlain, err := runShift(t, context.Background(), plain)
	if err != nil {
		t.Fatal(err)
	}
	off := New(Config{
		Spec: testSpec(), Daemon: baseline.DaemonConfig{Seed: 1}, Seed: 1,
		Replan: ReplanConfig{Mode: ReplanOff, EpochTicks: 3},
	})
	resOff, err := runShift(t, context.Background(), off)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resPlain, resOff) {
		t.Fatalf("ReplanOff diverged from the plan-once policy:\nplain: %+v\noff:   %+v", resPlain, resOff)
	}
	if len(off.EpochReports) != 0 || off.Replans != 0 {
		t.Fatalf("ReplanOff recorded lifecycle activity: %d reports, %d replans", len(off.EpochReports), off.Replans)
	}
}

// TestParseReplanMode pins the -replan flag spellings: "", "off" and
// "drift" parse; anything else, including the retired "interval",
// errors.
func TestParseReplanMode(t *testing.T) {
	for s, want := range map[string]ReplanMode{"": ReplanOff, "off": ReplanOff, "drift": ReplanDrift} {
		got, err := ParseReplanMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseReplanMode(%q) = %v, %v; want %v", s, got, err, want)
		}
		if s != "" && got.String() != s {
			t.Fatalf("%v.String() = %q, want %q", got, got.String(), s)
		}
	}
	for _, s := range []string{"interval", "Drift", "junk"} {
		if _, err := ParseReplanMode(s); err == nil {
			t.Fatalf("ParseReplanMode(%q) accepted a bad mode", s)
		}
	}
}

// TestReplanDriftImprovesShiftedRun is the makespan-recovery bar at unit
// scale: on the shifting workload, drift re-planning must beat the
// plan-once policy end to end.
func TestReplanDriftImprovesShiftedRun(t *testing.T) {
	static := New(Config{Spec: testSpec(), Daemon: baseline.DaemonConfig{Seed: 1}, Seed: 1})
	resStatic, err := runShift(t, context.Background(), static)
	if err != nil {
		t.Fatal(err)
	}
	replan := New(Config{
		Spec: testSpec(), Daemon: baseline.DaemonConfig{Seed: 1}, Seed: 1,
		Replan: ReplanConfig{Mode: ReplanDrift, EpochTicks: 2},
	})
	resReplan, err := runShift(t, context.Background(), replan)
	if err != nil {
		t.Fatal(err)
	}
	if resReplan.TotalTime >= resStatic.TotalTime {
		t.Fatalf("drift re-planning did not recover makespan: %.4fs vs static %.4fs",
			resReplan.TotalTime, resStatic.TotalTime)
	}
}

// cancelOnShiftTick cancels the run's context at the third policy tick
// of the shifted region — i.e. mid-instance, with the epoch lifecycle
// active.
type cancelOnShiftTick struct {
	*Merchandiser
	cancel   context.CancelFunc
	instance int
	ticks    int
}

func (c *cancelOnShiftTick) BeforeInstance(ctx context.Context, i int, mem *hm.Memory, works []hm.TaskWork) error {
	c.instance = i
	return c.Merchandiser.BeforeInstance(ctx, i, mem, works)
}

func (c *cancelOnShiftTick) Tick(now float64, mem *hm.Memory, tasks []hm.TaskStatus) {
	if c.instance >= 2 {
		c.ticks++
		if c.ticks == 3 { // past one epoch boundary (EpochTicks=2)
			c.cancel()
		}
	}
	c.Merchandiser.Tick(now, mem, tasks)
}

// TestReplanCancellationNoLeak cancels mid-epoch, with re-planning
// active, and requires (a) the run to unwind with context.Canceled — no
// deadlock — and (b) every goroutine to drain afterwards.
func TestReplanCancellationNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := New(Config{
		Spec: testSpec(), Daemon: baseline.DaemonConfig{Seed: 1}, Seed: 1,
		Replan: ReplanConfig{Mode: ReplanDrift, EpochTicks: 2},
	})
	pol := &cancelOnShiftTick{Merchandiser: m, cancel: cancel}
	done := make(chan error, 1)
	go func() {
		_, err := runShift(t, ctx, pol)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-epoch cancel returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not unwind after mid-epoch cancellation (engine deadlocked)")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after cancellation: %d -> %d\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
