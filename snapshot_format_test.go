package merchandiser

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"merchandiser/internal/ml"
	"merchandiser/internal/model"
	"merchandiser/internal/placement"
	"merchandiser/internal/pmc"
	"merchandiser/internal/store"
)

// snapshotBytes snapshots sys and returns the bytes.
func snapshotBytes(t *testing.T, sys *System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// bitIdenticalPlans asserts two systems produce Float64bits-identical
// MinMakespanPlan output on the standard probe.
func bitIdenticalPlans(t *testing.T, want, got *System, label string) {
	t.Helper()
	dc := want.Spec.CapacityPages(DRAM)
	wp, err := placement.MinMakespanPlan(planProbe(), dc, want.Perf, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := placement.MinMakespanPlan(planProbe(), dc, got.Perf, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wp, gp) {
		t.Fatalf("%s: MinMakespanPlan differs:\n%+v\nvs\n%+v", label, wp, gp)
	}
	for i := range wp.Predicted {
		if math.Float64bits(wp.Predicted[i]) != math.Float64bits(gp.Predicted[i]) {
			t.Fatalf("%s: predicted time %d not bit-identical", label, i)
		}
	}
}

// syntheticSystem wraps a model fitted on synthetic feature rows in a
// System (no corpus training).
func syntheticSystem(t *testing.T, m ml.Regressor) *System {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	d := len(pmc.SelectedEvents) + 1
	X := make([][]float64, 150)
	y := make([]float64, len(X))
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()
		}
		X[i] = row
		y[i] = 0.2 + 0.6*row[0] + 0.3*row[1]*row[2]
	}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	return &System{
		Spec:      testSpec(),
		Perf:      &model.PerfModel{Corr: &model.CorrelationFunc{Model: m, Events: append([]string(nil), pmc.SelectedEvents...)}},
		TrainedR2: 0.5,
	}
}

// TestSaveFormatsServeIdentically: the deprecated SaveFileFormat shim
// writes exactly what SaveFile and Snapshot write — the one binary
// format, with the model only in the slot sections. The restore serves
// bit-identical plans without training.
func TestSaveFormatsServeIdentically(t *testing.T) {
	sys := syntheticSystem(t, ml.NewGradientBoosted(ml.GBRConfig{NumStages: 20, MaxDepth: 4, Seed: 3}))
	snap := snapshotBytes(t, sys)
	dir := t.TempDir()
	viaFile, viaShim := filepath.Join(dir, "file.artifact"), filepath.Join(dir, "shim.artifact")
	if err := sys.SaveFile(viaFile); err != nil {
		t.Fatal(err)
	}
	if err := sys.SaveFileFormat(viaShim, SaveBinary); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{viaFile, viaShim} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, snap) {
			t.Fatalf("%s differs from the Snapshot bytes", filepath.Base(p))
		}
	}

	a, err := store.Decode(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if !a.HasBinaryModel() {
		t.Fatal("snapshot carries no binary model sections")
	}
	if raw, _ := a.Get(store.SectionSystem); bytes.Contains(raw, []byte(`"model"`)) {
		t.Fatal("system section still carries a model")
	}

	reg := NewObserver()
	restored, err := Restore(context.Background(), bytes.NewReader(snap), WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	bitIdenticalPlans(t, sys, restored, "binary")
	if got := reg.Counter("ml.gbr.fits").Value(); got != 0 {
		t.Fatalf("restore recorded %v fits, want 0", got)
	}
	if reg.Counter("ml.gbr.predictions").Value() == 0 {
		t.Fatal("restored model predictions not observed")
	}
}

// TestSaveFileFormatNames: the deprecated shim accepts only the binary
// format's exact name. The retired JSON formats, unknown names and
// case-mangled spellings fail as ErrBadSpec and write nothing.
func TestSaveFileFormatNames(t *testing.T) {
	sys := syntheticSystem(t, ml.NewGradientBoosted(ml.GBRConfig{NumStages: 5, Seed: 1}))
	dir := t.TempDir()
	if err := sys.SaveFileFormat(filepath.Join(dir, "ok.artifact"), "binary"); err != nil {
		t.Fatalf("%q rejected: %v", SaveBinary, err)
	}
	for _, f := range []SaveFormat{"json", "both", "yaml", "BINARY", ""} {
		path := filepath.Join(dir, "x.artifact")
		if err := sys.SaveFileFormat(path, f); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("save format %q: got %v, want ErrBadSpec", f, err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("save format %q left a file behind", f)
		}
	}
}

// TestSaveFormatForest runs the snapshot loop over a forest-model
// system so both ensemble kinds cross the binary boundary.
func TestSaveFormatForest(t *testing.T) {
	sys := syntheticSystem(t, ml.NewRandomForest(ml.ForestConfig{NumTrees: 5, MaxDepth: 5, Seed: 13}))
	snap := snapshotBytes(t, sys)
	restored, err := Restore(context.Background(), bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	bitIdenticalPlans(t, sys, restored, "forest")
	if !bytes.Equal(snapshotBytes(t, restored), snap) {
		t.Fatal("forest re-snapshot is not byte-identical")
	}
}

// TestSaveFormatUntrained: with no model the artifact has no slot
// sections, and the shim still writes the Snapshot bytes.
func TestSaveFormatUntrained(t *testing.T) {
	sys, err := NewSystem(testSpec(), TrainNone)
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshotBytes(t, sys)
	a, err := store.Decode(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if a.Has(store.SectionModelNodes) || a.Has(store.SectionModelTrees) {
		t.Fatal("untrained snapshot grew model sections")
	}
	path := filepath.Join(t.TempDir(), "sys.artifact")
	if err := sys.SaveFileFormat(path, SaveBinary); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, snap) {
		t.Fatalf("shim output differs from the Snapshot bytes (%v)", err)
	}
}

// TestRestoreRejectsOtherVersions: an artifact written under another
// store version — such as one from before the binary-only bump — fails
// restore as ErrBadArtifact instead of being misread.
func TestRestoreRejectsOtherVersions(t *testing.T) {
	sys := syntheticSystem(t, ml.NewGradientBoosted(ml.GBRConfig{NumStages: 5, Seed: 1}))
	snap := snapshotBytes(t, sys)
	marker := func(v int) []byte { return []byte(fmt.Sprintf(`{"version":%d`, v)) }
	for _, v := range []int{store.Version - 1, store.Version + 1} {
		old := bytes.Replace(snap, marker(store.Version), marker(v), 1)
		if bytes.Equal(old, snap) {
			t.Fatal("version marker not found")
		}
		if _, err := Restore(context.Background(), bytes.NewReader(old)); !errors.Is(err, ErrBadArtifact) {
			t.Fatalf("version %d artifact: got %v, want ErrBadArtifact", v, err)
		}
	}
}
