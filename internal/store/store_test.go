package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"merchandiser/internal/hm"
	"merchandiser/internal/merr"
	"merchandiser/internal/ml"
	"merchandiser/internal/placement"
	"merchandiser/internal/pmc"
)

// fittedGBR trains a tiny GBR on deterministic synthetic data — the
// model payload used across these tests.
func fittedGBR(t *testing.T) *ml.GradientBoosted {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	n, d := 80, len(pmc.SelectedEvents)+1
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()
		}
		X[i] = row
		y[i] = 0.3 + 0.5*row[0] + 0.2*row[d-1]
	}
	g := ml.NewGradientBoosted(ml.GBRConfig{NumStages: 8, MaxDepth: 3, Seed: 7})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	return g
}

// fittedFlat is fittedGBR's flat form.
func fittedFlat(t *testing.T) *ml.FlatModel {
	t.Helper()
	fm, err := ml.DumpFlat(fittedGBR(t))
	if err != nil {
		t.Fatal(err)
	}
	return fm
}

// modelArtifact is an artifact holding only fittedGBR's model sections.
func modelArtifact(t *testing.T) *Artifact {
	t.Helper()
	a := &Artifact{Tool: "store_test"}
	if err := a.SetModelFlat(fittedFlat(t)); err != nil {
		t.Fatal(err)
	}
	return a
}

// assertPredictsLike requires m to predict bit-identically to want on
// random feature vectors.
func assertPredictsLike(t *testing.T, want, m ml.Regressor, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 50; i++ {
		x := make([]float64, len(pmc.SelectedEvents)+1)
		for j := range x {
			x[j] = rng.Float64()
		}
		w, g := want.Predict(x), m.Predict(x)
		if math.Float64bits(w) != math.Float64bits(g) {
			t.Fatalf("prediction %d differs through the store: %v vs %v", i, w, g)
		}
	}
}

// loadModel restores the model an artifact's binary sections carry.
func loadModel(t *testing.T, a *Artifact) ml.Regressor {
	t.Helper()
	fm, err := a.ModelFlat()
	if err != nil {
		t.Fatal(err)
	}
	m, err := ml.LoadFlat(fm, ml.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testSystemState(t *testing.T) *SystemState {
	t.Helper()
	return &SystemState{
		Spec:      hm.DefaultSpec(),
		Events:    append([]string(nil), pmc.SelectedEvents...),
		TrainedR2: 0.91,
		Train: TrainMeta{
			Seed:    1,
			Level:   "quick",
			Samples: 80,
			Stats: &FeatureStats{
				Names: []string{"a", "b"},
				Count: 80,
				Mean:  []float64{0.5, 0.4},
				Min:   []float64{0, 0},
				Max:   []float64{1, 1},
			},
		},
	}
}

func testArtifact(t *testing.T) *Artifact {
	t.Helper()
	a := modelArtifact(t)
	if err := a.SetSystem(testSystemState(t)); err != nil {
		t.Fatal(err)
	}
	if err := a.SetAlpha(AlphaTable{"grid": 1.25, "particles": 0.8}); err != nil {
		t.Fatal(err)
	}
	plan := &placement.Plan{
		DRAMAccesses: []float64{100, 50},
		GoalRatio:    []float64{0.5, 0.25},
		DRAMPages:    []uint64{10, 5},
		Predicted:    []float64{1.5, 1.4},
		Rounds:       3,
	}
	tasks := []placement.TaskInput{{Name: "t0"}, {Name: "t1"}}
	if err := a.SetPlan(PlanRecordFrom(tasks, plan)); err != nil {
		t.Fatal(err)
	}
	return a
}

func encode(t *testing.T, a *Artifact) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTripByteIdentical(t *testing.T) {
	a := testArtifact(t)
	first := encode(t, a)
	decoded, err := Decode(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	second := encode(t, decoded)
	if !bytes.Equal(first, second) {
		t.Fatal("encode(decode(encode(a))) is not byte-identical")
	}
	if decoded.Tool != "store_test" {
		t.Fatalf("tool metadata lost: %q", decoded.Tool)
	}
	st, err := decoded.System()
	if err != nil {
		t.Fatal(err)
	}
	if st.TrainedR2 != 0.91 || st.Train.Level != "quick" || st.Train.Stats == nil {
		t.Fatalf("system state mangled: %+v", st)
	}
	alpha, err := decoded.Alpha()
	if err != nil {
		t.Fatal(err)
	}
	if alpha["grid"] != 1.25 {
		t.Fatalf("alpha table mangled: %v", alpha)
	}
	plan, err := decoded.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Rounds != 3 || plan.Makespan != 1.5 || plan.Tasks[1] != "t1" {
		t.Fatalf("plan record mangled: %+v", plan)
	}
}

func TestLoadedModelPredictsBitIdentically(t *testing.T) {
	a := testArtifact(t)
	decoded, err := Decode(bytes.NewReader(encode(t, a)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decoded.System(); err != nil {
		t.Fatal(err)
	}
	assertPredictsLike(t, fittedGBR(t), loadModel(t, decoded), 9)
}

func TestDecodeRejectsCorruption(t *testing.T) {
	good := encode(t, testArtifact(t))
	manifestEnd := bytes.IndexByte(good[len(Magic)+1:], '\n') + len(Magic) + 1

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"bad magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] = 'X'
			return c
		}},
		{"truncated manifest", func(b []byte) []byte { return b[:len(Magic)+3] }},
		{"truncated section", func(b []byte) []byte { return b[:len(b)-10] }},
		{"flipped payload byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[manifestEnd+10] ^= 0xff
			return c
		}},
		{"trailing garbage", func(b []byte) []byte { return append(append([]byte(nil), b...), 'x') }},
		{"manifest garbage", func(b []byte) []byte {
			return append([]byte(Magic+"\nnot json\n"), b[manifestEnd+1:]...)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(bytes.NewReader(tc.mutate(good)))
			if !errors.Is(err, merr.ErrBadArtifact) {
				t.Fatalf("got %v, want ErrBadArtifact", err)
			}
		})
	}
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	good := encode(t, testArtifact(t))
	marker := func(v int) []byte { return []byte(fmt.Sprintf(`{"version":%d`, v)) }
	// Older writers (a pre-bump artifact) and newer ones both fail.
	for _, v := range []int{Version - 1, Version + 1} {
		bad := bytes.Replace(good, marker(Version), marker(v), 1)
		if bytes.Equal(good, bad) {
			t.Fatal("version marker not found in manifest")
		}
		_, err := Decode(bytes.NewReader(bad))
		if !errors.Is(err, merr.ErrBadArtifact) {
			t.Fatalf("version %d: got %v, want ErrBadArtifact", v, err)
		}
		if err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("version %d: error %v does not name the version", v, err)
		}
	}
}

func TestSystemSectionStrictness(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(*SystemState)
	}{
		{"invalid spec", func(s *SystemState) { s.Spec.PageSize = 0 }},
		{"nan r2", func(s *SystemState) { s.TrainedR2 = math.NaN() }},
		{"model without events", func(s *SystemState) { s.Events = nil }},
		{"empty event name", func(s *SystemState) { s.Events[0] = "" }},
		{"bad stats", func(s *SystemState) { s.Train.Stats.Mean = s.Train.Stats.Mean[:1] }},
	}
	for _, tc := range mutations {
		t.Run(tc.name, func(t *testing.T) {
			st := testSystemState(t)
			tc.mutate(st)
			a := modelArtifact(t)
			if err := a.SetSystem(st); !errors.Is(err, merr.ErrBadArtifact) {
				t.Fatalf("SetSystem accepted a bad state: %v", err)
			}
			// A hand-built section with the same bad payload must fail on
			// read too (NaN is unrepresentable in JSON, so that case ends
			// at the encode-side rejection above).
			raw, err := json.Marshal(st)
			if err != nil {
				return
			}
			a.Set(SectionSystem, raw)
			if _, err := a.System(); !errors.Is(err, merr.ErrBadArtifact) {
				t.Fatalf("System accepted a bad section: %v", err)
			}
		})
	}

	t.Run("unknown field", func(t *testing.T) {
		a := &Artifact{}
		a.Set(SectionSystem, []byte(`{"spec":{},"bogus_field":1}`))
		if _, err := a.System(); !errors.Is(err, merr.ErrBadArtifact) {
			t.Fatalf("got %v, want ErrBadArtifact", err)
		}
	})
	t.Run("missing section", func(t *testing.T) {
		a := &Artifact{}
		if _, err := a.System(); !errors.Is(err, merr.ErrBadArtifact) {
			t.Fatal("missing section not rejected")
		}
	})
	t.Run("invalid spec also matches ErrBadSpec", func(t *testing.T) {
		st := testSystemState(t)
		st.Spec.PageSize = 0
		a := &Artifact{}
		err := a.SetSystem(st)
		if !errors.Is(err, merr.ErrBadArtifact) || !errors.Is(err, merr.ErrBadSpec) {
			t.Fatalf("spec failure %v should match both kinds", err)
		}
	})
}

func TestAlphaAndPlanValidation(t *testing.T) {
	a := &Artifact{}
	if err := a.SetAlpha(AlphaTable{"x": math.NaN()}); !errors.Is(err, merr.ErrBadArtifact) {
		t.Fatalf("NaN alpha accepted: %v", err)
	}
	if err := a.SetAlpha(AlphaTable{"": 1}); !errors.Is(err, merr.ErrBadArtifact) {
		t.Fatalf("unnamed alpha accepted: %v", err)
	}
	if err := a.SetPlan(&PlanRecord{}); !errors.Is(err, merr.ErrBadArtifact) {
		t.Fatalf("empty plan accepted: %v", err)
	}
	if err := a.SetPlan(&PlanRecord{
		Tasks:        []string{"t"},
		DRAMAccesses: []float64{1},
		GoalRatio:    []float64{0.5, 0.9}, // length mismatch
		DRAMPages:    []uint64{1},
		Predicted:    []float64{1},
	}); !errors.Is(err, merr.ErrBadArtifact) {
		t.Fatalf("ragged plan accepted: %v", err)
	}
}

func TestWriteFileAtomicAndReadBack(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sys.artifact")
	a := testArtifact(t)
	if err := WriteFile(path, a); err != nil {
		t.Fatal(err)
	}
	// Overwrite with the same artifact: the rename path must replace, not
	// append, and leave no temp files behind.
	if err := WriteFile(path, a); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "sys.artifact" {
		t.Fatalf("directory not clean after writes: %v", entries)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, a), encode(t, back)) {
		t.Fatal("read-back artifact differs")
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.artifact")); err == nil {
		t.Fatal("missing file read succeeded")
	}
}

func TestStatsFromMatrix(t *testing.T) {
	X := [][]float64{{1, 10}, {3, 20}}
	s := StatsFromMatrix([]string{"a", "b"}, X)
	if s.Count != 2 || s.Mean[0] != 2 || s.Min[1] != 10 || s.Max[1] != 20 {
		t.Fatalf("stats wrong: %+v", s)
	}
	if err := s.validate(); err != nil {
		t.Fatal(err)
	}
	if StatsFromMatrix(nil, nil) != nil {
		t.Fatal("empty input should yield nil stats")
	}
}

func TestEncodeRejectsBadSectionNames(t *testing.T) {
	a := &Artifact{}
	a.Set("Bad Name", []byte("x"))
	var buf bytes.Buffer
	if err := a.Encode(&buf); !errors.Is(err, merr.ErrBadArtifact) {
		t.Fatalf("got %v, want ErrBadArtifact", err)
	}
}

func TestAtomicWriteFileAndSHA(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blob.bin")
	data := []byte("merchandiser atomic write")
	if err := AtomicWriteFile(path, data); err != nil {
		t.Fatal(err)
	}
	back, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatalf("read back %q", back)
	}
	// Overwrite is atomic too: the new content fully replaces the old.
	if err := AtomicWriteFile(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	sha, n, err := FileSHA256(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(sha) != 64 {
		t.Fatalf("sha %q len %d", sha, n)
	}
	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after atomic writes, want 1", len(entries))
	}
	if err := AtomicWriteFile(filepath.Join(dir, "no", "such", "dir", "f"), data); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	if _, _, err := FileSHA256(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("FileSHA256 on a missing file succeeded")
	}
}

func TestEpochsSectionRoundTrip(t *testing.T) {
	a := testArtifact(t)
	if eps, err := a.Epochs(); err != nil || eps != nil {
		t.Fatalf("missing section: got %v, %v; want nil, nil", eps, err)
	}
	recs := []EpochRecord{
		{Instance: 0, Epoch: 1, Time: 0.4, Drift: 0.12, Projected: 2.1},
		{Instance: 2, Epoch: 3, Time: 1.1, Drift: 0.31, Projected: 3.0, Replanned: true, Residual: 1.2, MigrationCost: 0.05, MovedPages: 40},
	}
	if err := a.SetEpochs(recs); err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(bytes.NewReader(encode(t, a)))
	if err != nil {
		t.Fatal(err)
	}
	back, err := decoded.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[1] != recs[1] || back[0] != recs[0] {
		t.Fatalf("epochs mangled: %+v", back)
	}
	// Validation gates both directions.
	if err := a.SetEpochs([]EpochRecord{{Instance: -1}}); !errors.Is(err, merr.ErrBadArtifact) {
		t.Fatalf("negative instance accepted: %v", err)
	}
	if err := a.SetEpochs([]EpochRecord{{Drift: math.Inf(1)}}); !errors.Is(err, merr.ErrBadArtifact) {
		t.Fatalf("non-finite drift accepted: %v", err)
	}
	a.Set(SectionEpochs, []byte("not json"))
	if _, err := a.Epochs(); !errors.Is(err, merr.ErrBadArtifact) {
		t.Fatalf("junk epochs section decoded: %v", err)
	}
}
