package experiments

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"merchandiser/internal/apps"
	"merchandiser/internal/model"
	"merchandiser/internal/obs"
)

// dynArt is the dynamic-cell test fixture: the experiment spec with an
// untrained performance model (linear interpolation — no corpus, fast).
func dynArt() *Artifacts {
	return &Artifacts{Spec: apps.ExperimentSpec(), Perf: &model.PerfModel{}}
}

func dynCfg() Config {
	return Config{Quick: true, Seed: 1, StepSec: 0.0005}
}

// TestReplanStudyDeterministicAndRecovers is the acceptance bar for the
// epoch lifecycle in one shot: the PhaseShift study must agree exactly
// between Workers=1 and Workers=8, re-planning must actually fire, and
// drift mode must beat the static plan end to end.
func TestReplanStudyDeterministicAndRecovers(t *testing.T) {
	c1, c8 := dynCfg(), dynCfg()
	c1.Workers, c8.Workers = 1, 8
	rows, err := ReplanStudy(context.Background(), nil, dynArt(), c1)
	if err != nil {
		t.Fatal(err)
	}
	rows8, err := ReplanStudy(context.Background(), nil, dynArt(), c8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, rows8) {
		t.Fatalf("replan study diverged between Workers=1 and Workers=8:\nW1: %+v\nW8: %+v", rows, rows8)
	}
	if len(rows) != 2 || rows[0].Mode != "off" || rows[1].Mode != "drift" {
		t.Fatalf("unexpected rows: %+v", rows)
	}
	off, drift := rows[0], rows[1]
	if drift.Replans == 0 || drift.Epochs == 0 {
		t.Fatalf("drift mode never re-planned: %+v", drift)
	}
	if off.Replans != 0 || off.Epochs != 0 {
		t.Fatalf("off mode ran the lifecycle: %+v", off)
	}
	if drift.TotalTime >= off.TotalTime {
		t.Fatalf("drift re-planning did not recover makespan: %.3fs vs off %.3fs",
			drift.TotalTime, off.TotalTime)
	}
}

// TestReplanStudyGolden pins the study rows — makespans, re-plan counts,
// drift magnitudes, pages moved — to a golden file, so any change to the
// epoch lifecycle's observable behavior is a reviewed diff. Regenerate
// with -update after intentional changes.
func TestReplanStudyGolden(t *testing.T) {
	rows, err := ReplanStudy(context.Background(), nil, dynArt(), dynCfg())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "replan_study.golden.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if d := obs.DiffText(string(want), string(got)); d != "" {
		t.Errorf("replan study drift (re-run with -update if intentional):\n%s", d)
	}
}
