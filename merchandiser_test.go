package merchandiser

import (
	"context"
	"testing"

	"merchandiser/internal/hm"
)

func testSpec() SystemSpec {
	s := DefaultSpec()
	s.Tiers[hm.DRAM].CapacityBytes = 128 * 4096
	s.Tiers[hm.PM].CapacityBytes = 2048 * 4096
	s.LLCBytes = 32 << 10
	return s
}

func buildTestApp(t *testing.T, instances int) App {
	t.Helper()
	b := &AppBuilder{
		AppName: "mini",
		Objects: []ObjectDef{
			{Name: "A", Owner: "t0", Bytes: 400 * 4096},
			{Name: "B", Owner: "t1", Bytes: 400 * 4096},
		},
		Tasks: []TaskDef{
			{Name: "t0", Phases: []PhaseDef{{
				Name: "p", ComputeSeconds: 0.01,
				Accesses: []AccessDef{{Object: "A", Pattern: Pattern{Kind: Stream, ElemSize: 8}, ProgramAccesses: 2e7}},
			}}},
			{Name: "t1", Phases: []PhaseDef{{
				Name: "p", ComputeSeconds: 0.01,
				Accesses: []AccessDef{{Object: "B", Pattern: Pattern{Kind: Random, ElemSize: 8}, ProgramAccesses: 8e6}},
			}}},
		},
		Instances: instances,
		Scale:     func(i int, task string) float64 { return 1 + 0.1*float64(i%3) },
	}
	app, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func TestSystemEndToEnd(t *testing.T) {
	sys, err := NewSystem(testSpec(), TrainNone)
	if err != nil {
		t.Fatal(err)
	}
	app := buildTestApp(t, 4)
	for _, f := range []PolicyFactory{
		sys.PMOnly(), sys.MemoryMode(), sys.MemoryOptimizer(), sys.Merchandiser(),
		sys.Sparta("B"), sys.WarpXPM(),
	} {
		res, err := sys.Run(context.Background(), buildTestApp(t, 3), f, Options{StepSec: 0.001, IntervalSec: 0.02})
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if res.TotalTime <= 0 || len(res.Instances) != 3 {
			t.Fatalf("%s: bad result %+v", f.Name(), res)
		}
	}
	_ = app
}

func TestSystemTrainedBeatsUntrainedPredictions(t *testing.T) {
	sys, err := NewSystem(testSpec(), TrainQuick)
	if err != nil {
		t.Fatal(err)
	}
	if sys.TrainedR2 < 0.5 {
		t.Fatalf("trained R2 = %v, want > 0.5", sys.TrainedR2)
	}
	if sys.Perf.Corr == nil {
		t.Fatal("trained system must carry a correlation function")
	}
	res, err := sys.Run(context.Background(), buildTestApp(t, 3), sys.Merchandiser(), Options{StepSec: 0.001, IntervalSec: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= 0 {
		t.Fatal("no time elapsed")
	}
}

func TestAppBuilderValidation(t *testing.T) {
	cases := []AppBuilder{
		{},
		{AppName: "x", Instances: 1},
		{AppName: "x", Instances: 0,
			Objects: []ObjectDef{{Name: "A", Bytes: 1}},
			Tasks:   []TaskDef{{Name: "t"}}},
		{AppName: "x", Instances: 1,
			Objects: []ObjectDef{{Name: "A", Bytes: 0}},
			Tasks:   []TaskDef{{Name: "t"}}},
		{AppName: "x", Instances: 1,
			Objects: []ObjectDef{{Name: "A", Bytes: 1}, {Name: "A", Bytes: 1}},
			Tasks:   []TaskDef{{Name: "t"}}},
		{AppName: "x", Instances: 1,
			Objects: []ObjectDef{{Name: "A", Bytes: 1}},
			Tasks: []TaskDef{{Name: "t", Phases: []PhaseDef{{
				Accesses: []AccessDef{{Object: "NOPE", Pattern: Pattern{Kind: Stream, ElemSize: 8}}},
			}}}}},
		{AppName: "x", Instances: 1,
			Objects: []ObjectDef{{Name: "A", Bytes: 1}},
			Tasks: []TaskDef{{Name: "t", Phases: []PhaseDef{{
				Accesses: []AccessDef{{Object: "A", Pattern: Pattern{Kind: Stream, ElemSize: 0}}},
			}}}}},
	}
	for i, b := range cases {
		if _, err := b.Build(); err == nil {
			t.Fatalf("case %d should fail validation", i)
		}
	}
}

func TestAppBuilderScaleErrors(t *testing.T) {
	b := &AppBuilder{
		AppName:   "x",
		Objects:   []ObjectDef{{Name: "A", Owner: "t", Bytes: 4096}},
		Tasks:     []TaskDef{{Name: "t", Phases: []PhaseDef{{Name: "p"}}}},
		Instances: 2,
		Scale:     func(i int, task string) float64 { return 0 },
	}
	app, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, _ := NewSystem(testSpec(), TrainNone)
	if _, err := sys.Run(context.Background(), app, sys.PMOnly(), Options{StepSec: 0.001}); err == nil {
		t.Fatal("zero scale should surface as an error")
	}
}

func TestPublicTraceAPI(t *testing.T) {
	// Instrument a toy gather loop and feed the recognized pattern into an
	// AppBuilder definition — the §5.3 source-unavailable workflow.
	rec := NewTraceRecorder()
	table, err := rec.Alloc("table", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	idx := []uint64{9, 131071, 7, 88111, 42, 130000, 5, 90000, 77, 120000, 3, 60000}
	for rep := 0; rep < 400; rep++ {
		for _, i := range idx {
			rec.Touch(table, (i*uint64(rep+1))%(1<<17)*8, false)
		}
	}
	cls := ClassifyTrace(rec, 8)
	if len(cls) != 1 {
		t.Fatalf("classifications = %d", len(cls))
	}
	if cls[0].Pattern.Kind != Random {
		t.Fatalf("gather trace recognized as %v", cls[0].Pattern.Kind)
	}
	// The recognized pattern drops straight into an app definition.
	app, err := (&AppBuilder{
		AppName:   "traced",
		Objects:   []ObjectDef{{Name: "table", Owner: "t", Bytes: table.Bytes}},
		Tasks:     []TaskDef{{Name: "t", Phases: []PhaseDef{{Name: "p", Accesses: []AccessDef{{Object: "table", Pattern: cls[0].Pattern, ProgramAccesses: 1e6}}}}}},
		Instances: 2,
	}).Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, _ := NewSystem(testSpec(), TrainNone)
	if _, err := sys.Run(context.Background(), app, sys.Merchandiser(), Options{StepSec: 0.001}); err != nil {
		t.Fatal(err)
	}
}

func TestCompare(t *testing.T) {
	sys, _ := NewSystem(testSpec(), TrainNone)
	rows, err := sys.Compare(context.Background(), buildTestApp(t, 3),
		Options{StepSec: 0.001, IntervalSec: 0.02},
		sys.PMOnly(), sys.MemoryOptimizer(), sys.Merchandiser())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Policy != "PM-only" || rows[0].Speedup != 1 {
		t.Fatalf("baseline row wrong: %+v", rows[0])
	}
	for _, r := range rows {
		if r.TotalSeconds <= 0 || r.Speedup <= 0 {
			t.Fatalf("empty row: %+v", r)
		}
	}
	if rows[2].Speedup < 1 {
		t.Fatalf("Merchandiser should not lose to PM-only: %+v", rows[2])
	}
	if _, err := sys.Compare(context.Background(), buildTestApp(t, 2), Options{}); err == nil {
		t.Fatal("empty policy list accepted")
	}
}
