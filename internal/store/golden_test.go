package store

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"merchandiser/internal/ml"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden artifact fixture")

const goldenPath = "testdata/golden.artifact"

// TestGoldenArtifact pins the on-disk format: the committed fixture — a
// system checkpoint with its model in the binary slot sections, plus
// alpha and plan sections — must decode, validate, and re-encode to its
// exact committed bytes; and regenerating it from source must reproduce
// those bytes. Any accidental change to the container layout, the slot
// layout, the canonical JSON, or a section schema flips one of these
// comparisons — bump Version (container and JSON sections) or
// SlotVersion (slot layout and node-section metadata) and regenerate
// with -update only for deliberate format changes.
func TestGoldenArtifact(t *testing.T) {
	fresh := encode(t, testArtifact(t))

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, fresh, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden fixture rewritten (%d bytes)", len(fresh))
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden fixture unreadable (regenerate with -update): %v", err)
	}
	if !bytes.Equal(fresh, want) {
		t.Fatal("freshly encoded artifact differs from the golden fixture: the schema drifted without a Version bump")
	}

	a, err := Decode(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("golden fixture no longer decodes: %v", err)
	}
	if _, err := a.System(); err != nil {
		t.Fatalf("golden system section no longer validates: %v", err)
	}
	if _, err := a.Alpha(); err != nil {
		t.Fatalf("golden alpha section no longer validates: %v", err)
	}
	if _, err := a.Plan(); err != nil {
		t.Fatalf("golden plan section no longer validates: %v", err)
	}
	if !bytes.Equal(encode(t, a), want) {
		t.Fatal("golden fixture round trip is not byte-identical")
	}
}

// TestGoldenBinaryArtifact pins the model half of the same fixture: its
// two slot sections must hold exactly the bytes the source-fitted model
// encodes to, decode to that model's flat form, restore a model that
// predicts bit-identically to it, and re-encode from the restored model
// to the committed bytes. The last check is the forward-compat guard:
// slot bytes written under the current SlotVersion must keep decoding
// until the version is deliberately bumped, at which point this test
// fails loudly and the fixture is regenerated with -update.
func TestGoldenBinaryArtifact(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden fixture unreadable (regenerate with -update): %v", err)
	}
	a, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("golden fixture no longer decodes: %v", err)
	}
	if !a.HasBinaryModel() {
		t.Fatal("golden fixture lost its slot sections")
	}
	fresh := modelArtifact(t)
	for _, name := range []string{SectionModelNodes, SectionModelTrees} {
		got, _ := a.Get(name)
		want, _ := fresh.Get(name)
		if !bytes.Equal(got, want) {
			t.Fatalf("golden %s differs from the source-fitted model's: the slot format drifted without a SlotVersion bump", name)
		}
	}
	fm, err := a.ModelFlat()
	if err != nil {
		t.Fatalf("golden slot sections no longer decode: %v", err)
	}
	if !reflect.DeepEqual(fm, fittedFlat(t)) {
		t.Fatal("golden flat model differs from the source-fitted one (nodes, roots, depths or metadata)")
	}
	m := loadModel(t, a)
	assertPredictsLike(t, fittedGBR(t), m, 23)

	again, err := ml.DumpFlat(m)
	if err != nil {
		t.Fatal(err)
	}
	re := &Artifact{Tool: "store_test"}
	if err := re.SetModelFlat(again); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{SectionModelNodes, SectionModelTrees} {
		got, _ := re.Get(name)
		want, _ := a.Get(name)
		if !bytes.Equal(got, want) {
			t.Fatalf("re-encoding the restored model changes %s", name)
		}
	}
}
