package apps

import (
	"context"
	"slices"
	"testing"

	"merchandiser/internal/access"
	"merchandiser/internal/hm"
	"merchandiser/internal/spindle"
	"merchandiser/internal/stats"
	"merchandiser/internal/task"
)

// Small configurations for fast tests.

func smallSpGEMM(t *testing.T) *SpGEMM {
	t.Helper()
	app, err := NewSpGEMM(SpGEMMConfig{Tasks: 4, Scale: 10, EdgeFactor: 8, Instances: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func smallBFS(t *testing.T) *BFSApp {
	t.Helper()
	app, err := NewBFS(BFSConfig{Tasks: 4, Scale: 12, EdgeFactor: 8, Instances: 2, Rep: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func smallWarpX(t *testing.T) *WarpX {
	t.Helper()
	app, err := NewWarpX(WarpXConfig{Tasks: 6, GridX: 64, GridY: 48, Particles: 30000, Instances: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func smallDMRG(t *testing.T) *DMRG {
	t.Helper()
	app, err := NewDMRG(DMRGConfig{Ranks: 3, BlockDim: 256, Sweeps: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func smallNWChem(t *testing.T) *NWChemTC {
	t.Helper()
	app, err := NewNWChemTC(NWChemTCConfig{Tasks: 6, Tiles: 24, TileDim: 16, Instances: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func smallPhaseShift(t *testing.T) *PhaseShiftApp {
	t.Helper()
	app, err := NewPhaseShift(PhaseShiftConfig{Tasks: 4, StreamElems: 4 << 10, GatherElems: 4 << 10, Instances: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

type namedNoop struct{ task.Base }

func (namedNoop) Name() string { return "noop" }

func testSpec() hm.SystemSpec {
	s := ExperimentSpec()
	s.LLCBytes = 64 << 10 // small test inputs must still reach memory
	return s
}

func runApp(t *testing.T, app task.App) *task.Result {
	t.Helper()
	res, err := task.Run(context.Background(), app, testSpec(), namedNoop{}, task.Options{StepSec: 0.002, Debug: true})
	if err != nil {
		t.Fatalf("%s: %v", app.Name(), err)
	}
	return res
}

func TestAllAppsRunToCompletion(t *testing.T) {
	apps := []task.App{
		smallSpGEMM(t), smallBFS(t), smallWarpX(t), smallDMRG(t), smallNWChem(t),
	}
	for _, app := range apps {
		res := runApp(t, app)
		if len(res.Instances) != app.NumInstances() {
			t.Fatalf("%s: %d instances, want %d", app.Name(), len(res.Instances), app.NumInstances())
		}
		for i, inst := range res.Instances {
			if inst.Makespan <= 0 {
				t.Fatalf("%s instance %d: zero makespan", app.Name(), i)
			}
			for ti, tt := range inst.TaskTimes {
				if tt <= 0 {
					t.Fatalf("%s instance %d task %d: zero time", app.Name(), i, ti)
				}
			}
		}
	}
}

func TestTable1PatternClassification(t *testing.T) {
	// Table 1 of the paper: access patterns detected per application.
	want := map[string][]access.Kind{
		"SpGEMM":    {access.Stream, access.Random},
		"WarpX":     {access.Strided, access.Stencil},
		"BFS":       {access.Stream, access.Random},
		"DMRG":      {access.Stream, access.Strided},
		"NWChem-TC": {access.Stream, access.Random},
	}
	apps := []IRApp{
		smallSpGEMM(t), smallWarpX(t), smallBFS(t), smallDMRG(t), smallNWChem(t),
	}
	for _, app := range apps {
		prog := app.IR()
		rep, err := spindle.Analyze(prog)
		if err != nil {
			t.Fatalf("%s: %v", prog.Name, err)
		}
		got := map[access.Kind]bool{}
		for _, k := range rep.PatternKinds() {
			got[k] = true
		}
		for _, k := range want[prog.Name] {
			if !got[k] {
				t.Fatalf("%s: pattern %v not detected (got %v)", prog.Name, k, rep.PatternKinds())
			}
		}
	}
}

func TestInherentImbalanceStructure(t *testing.T) {
	// §7.2: SpGEMM, BFS and NWChem-TC carry application-inherent load
	// imbalance; WarpX and DMRG do not.
	imbalanced := []task.App{smallSpGEMM(t), smallBFS(t), smallNWChem(t)}
	balanced := []task.App{smallWarpX(t), smallDMRG(t)}
	cv := func(app task.App) float64 {
		res := runApp(t, app)
		return stats.ACV(res.TaskTimeMatrix())
	}
	for _, app := range imbalanced {
		if got := cv(app); got < 0.03 {
			t.Fatalf("%s: A.C.V %v — expected inherent imbalance", app.Name(), got)
		}
	}
	for _, app := range balanced {
		if got := cv(app); got > 0.15 {
			t.Fatalf("%s: A.C.V %v — expected near-balanced tasks", app.Name(), got)
		}
	}
}

func TestResultsAreDeterministicAcrossConstruction(t *testing.T) {
	a1, a2 := smallSpGEMM(t), smallSpGEMM(t)
	if a1.Checksum() != a2.Checksum() {
		t.Fatal("SpGEMM checksum not deterministic")
	}
	b1, b2 := smallBFS(t), smallBFS(t)
	for i := range b1.Levels() {
		if b1.Levels()[i] != b2.Levels()[i] {
			t.Fatal("BFS levels not deterministic")
		}
	}
	d1, d2 := smallDMRG(t), smallDMRG(t)
	for i := range d1.Eigenvalues() {
		if d1.Eigenvalues()[i] != d2.Eigenvalues()[i] {
			t.Fatal("DMRG eigenvalues not deterministic")
		}
	}
	w1, w2 := smallWarpX(t), smallWarpX(t)
	for i := range w1.FieldEnergies() {
		if w1.FieldEnergies()[i] != w2.FieldEnergies()[i] {
			t.Fatal("WarpX energies not deterministic")
		}
	}
	n1, n2 := smallNWChem(t), smallNWChem(t)
	if n1.Checksum() != n2.Checksum() {
		t.Fatal("NWChem-TC checksum not deterministic")
	}
	cs1, cs2 := n1.InstanceChecksums(), n2.InstanceChecksums()
	if len(cs1) != n1.NumInstances() {
		t.Fatalf("instance checksums = %d, want %d", len(cs1), n1.NumInstances())
	}
	for i := range cs1 {
		if cs1[i] == 0 || cs1[i] != cs2[i] {
			t.Fatalf("instance %d checksum %v vs %v", i, cs1[i], cs2[i])
		}
	}
	p1, p2 := smallPhaseShift(t), smallPhaseShift(t)
	ps1, ps2 := p1.Checksums(), p2.Checksums()
	if len(ps1) != p1.NumInstances() {
		t.Fatalf("PhaseShift checksum rows = %d, want %d", len(ps1), p1.NumInstances())
	}
	for i := range ps1 {
		if !slices.Equal(ps1[i], ps2[i]) {
			t.Fatalf("PhaseShift instance %d checksums %v vs %v", i, ps1[i], ps2[i])
		}
	}
}

func TestPerInstanceReallocationDoesNotLeak(t *testing.T) {
	app := smallSpGEMM(t)
	mem := hm.NewMemory(testSpec())
	if err := app.Setup(mem); err != nil {
		t.Fatal(err)
	}
	var peak uint64
	for i := 0; i < app.NumInstances(); i++ {
		if _, err := app.Instance(i, mem); err != nil {
			t.Fatal(err)
		}
		used := mem.UsedPages(hm.PM) + mem.UsedPages(hm.DRAM)
		if used > peak {
			peak = used
		}
		if err := mem.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	// Re-running the same instance must not grow usage (old bins freed).
	if _, err := app.Instance(0, mem); err != nil {
		t.Fatal(err)
	}
	if used := mem.UsedPages(hm.PM) + mem.UsedPages(hm.DRAM); used > peak {
		t.Fatalf("usage grew from %d to %d pages — leak", peak, used)
	}
}

func TestPaperSizedAppsFitTheExperimentPlatform(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size app construction is slow")
	}
	spec := ExperimentSpec()
	// Default-size apps must allocate within the PM capacity.
	builders := []func() (task.App, error){
		func() (task.App, error) { return NewSpGEMM(SpGEMMConfig{Seed: 1}) },
		func() (task.App, error) { return NewBFS(BFSConfig{Seed: 1}) },
		func() (task.App, error) { return NewWarpX(WarpXConfig{Seed: 1}) },
		func() (task.App, error) { return NewDMRG(DMRGConfig{Seed: 1}) },
		func() (task.App, error) { return NewNWChemTC(NWChemTCConfig{Seed: 1}) },
	}
	for _, build := range builders {
		app, err := build()
		if err != nil {
			t.Fatal(err)
		}
		mem := hm.NewMemory(spec)
		if err := app.Setup(mem); err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		if _, err := app.Instance(0, mem); err != nil {
			t.Fatalf("%s instance 0: %v", app.Name(), err)
		}
		used := float64(mem.UsedPages(hm.PM)+mem.UsedPages(hm.DRAM)) * float64(spec.PageSize)
		dram := float64(spec.Tiers[hm.DRAM].CapacityBytes)
		if used < 1.3*dram {
			t.Fatalf("%s: footprint %.1f MB should well exceed DRAM %.1f MB",
				app.Name(), used/1e6, dram/1e6)
		}
	}
}

func TestNWChemPhaseWork(t *testing.T) {
	app := smallNWChem(t)
	mem := hm.NewMemory(testSpec())
	if err := app.Setup(mem); err != nil {
		t.Fatal(err)
	}
	for _, name := range PhaseNames {
		tw, err := app.PhaseWork(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(tw.Phases) != 1 || tw.Phases[0].Name != name {
			t.Fatalf("PhaseWork(%s) = %+v", name, tw)
		}
	}
	if _, err := app.PhaseWork("nope"); err == nil {
		t.Fatal("unknown phase accepted")
	}
	et := app.EntireTaskWork()
	if len(et.Phases) != len(PhaseNames) {
		t.Fatalf("entire task has %d phases", len(et.Phases))
	}
}
