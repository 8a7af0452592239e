package ml

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"merchandiser/internal/merr"
	"merchandiser/internal/obs"
)

// serializeTrainingSet builds a deterministic nonlinear regression set
// large enough that fitted trees have real structure.
func serializeTrainingSet(n, d int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64() * 10
		}
		X[i] = row
		y[i] = math.Sin(row[0]) + 0.5*row[1] + row[0]*row[2]/10 + rng.NormFloat64()*0.1
	}
	return X, y
}

func assertBitEqualPredictions(t *testing.T, want, got Regressor, X [][]float64) {
	t.Helper()
	for i, x := range X {
		w, g := want.Predict(x), got.Predict(x)
		if math.Float64bits(w) != math.Float64bits(g) {
			t.Fatalf("row %d: predictions differ: %v vs %v", i, w, g)
		}
	}
	wb, _ := want.(BatchRegressor)
	gb, _ := got.(BatchRegressor)
	if wb == nil || gb == nil {
		return
	}
	wAll, gAll := wb.PredictAll(X), gb.PredictAll(X)
	for i := range wAll {
		if math.Float64bits(wAll[i]) != math.Float64bits(gAll[i]) {
			t.Fatalf("batch row %d: predictions differ: %v vs %v", i, wAll[i], gAll[i])
		}
	}
}

// cloneFlat deep-copies a flat model so tests can corrupt the copy
// without touching the live model's kernel table (DumpFlat aliases it).
func cloneFlat(f *FlatModel) *FlatModel {
	c := &FlatModel{
		Nodes: append([]NodeRec(nil), f.Nodes...),
		Roots: append([]int32(nil), f.Roots...),
		Depth: append([]int32(nil), f.Depth...),
		Meta:  f.Meta,
	}
	c.Meta.Importances = append([]float64(nil), f.Meta.Importances...)
	if p := f.Meta.GBR; p != nil {
		cp := *p
		c.Meta.GBR = &cp
	}
	if p := f.Meta.Forest; p != nil {
		cp := *p
		c.Meta.Forest = &cp
	}
	return c
}

// wireRoundTrip pushes a flat model through its persisted encodings,
// like the artifact store does: the node table as wire records, the
// metadata as JSON.
func wireRoundTrip(t *testing.T, f *FlatModel) *FlatModel {
	t.Helper()
	recs, err := NodeRecsFromBytes(AppendNodeRecs(nil, f.Nodes))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(&f.Meta)
	if err != nil {
		t.Fatal(err)
	}
	out := &FlatModel{
		Nodes: recs,
		Roots: append([]int32(nil), f.Roots...),
		Depth: append([]int32(nil), f.Depth...),
	}
	if err := json.Unmarshal(raw, &out.Meta); err != nil {
		t.Fatal(err)
	}
	return out
}

// assertSameFlat requires two flat models to be identical: node
// records, roots, depths and metadata.
func assertSameFlat(t *testing.T, want, got *FlatModel) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatal("flat models differ (nodes, roots, depths or metadata)")
	}
}

func fitFlatGBR(t *testing.T) (*GradientBoosted, [][]float64) {
	t.Helper()
	X, y := serializeTrainingSet(300, 5, 11)
	g := NewGradientBoosted(GBRConfig{NumStages: 12, MaxDepth: 4, Seed: 3})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	return g, X
}

func fitFlatForest(t *testing.T) (*RandomForest, [][]float64) {
	t.Helper()
	X, y := serializeTrainingSet(250, 4, 21)
	f := NewRandomForest(ForestConfig{NumTrees: 7, MaxDepth: 6, Seed: 5})
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	return f, X
}

func TestGBRDumpRoundTripNoRefit(t *testing.T) {
	X, y := serializeTrainingSet(300, 5, 3)
	g := NewGradientBoosted(GBRConfig{NumStages: 30, MaxDepth: 3, Subsample: 0.8, Seed: 11})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	fm, err := DumpFlat(g)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	loaded, err := LoadFlat(wireRoundTrip(t, fm), LoadOptions{Workers: 2, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	probe, _ := serializeTrainingSet(150, 5, 4)
	assertBitEqualPredictions(t, g, loaded, probe)
	if got := reg.Counter("ml.gbr.fits").Value(); got != 0 {
		t.Fatalf("loading recorded %v fits, want 0", got)
	}
	if got := reg.Counter("ml.gbr.predictions").Value(); got == 0 {
		t.Fatal("loaded model's predictions not observed through the attached registry")
	}
}

func TestForestDumpRoundTrip(t *testing.T) {
	f, _ := fitFlatForest(t)
	fm, err := DumpFlat(f)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFlat(wireRoundTrip(t, fm), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	probe, _ := serializeTrainingSet(120, 4, 6)
	assertBitEqualPredictions(t, f, loaded, probe)
}

// TestDumpModelTaggedUnion: the flat metadata names the model kind and
// carries exactly that kind's hyperparameters, and loading dispatches
// on it.
func TestDumpModelTaggedUnion(t *testing.T) {
	g, _ := fitFlatGBR(t)
	f, _ := fitFlatForest(t)
	for _, m := range []Regressor{g, f} {
		fm, err := DumpFlat(m)
		if err != nil {
			t.Fatal(err)
		}
		meta := fm.Meta
		if meta.Kind != m.Name() || (meta.GBR != nil) == (meta.Forest != nil) || (meta.GBR != nil) != (m.Name() == "GBR") {
			t.Fatalf("unexpected union shape for %s: %+v", m.Name(), meta)
		}
		loaded, err := LoadFlat(wireRoundTrip(t, fm), LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Name() != m.Name() {
			t.Fatalf("loaded model is %s, want %s", loaded.Name(), m.Name())
		}
	}
}

func TestDumpUnfittedFails(t *testing.T) {
	if _, err := DumpFlat(NewGradientBoosted(GBRConfig{})); !errors.Is(err, merr.ErrUntrained) {
		t.Fatalf("gbr dump: %v, want ErrUntrained", err)
	}
	if _, err := DumpFlat(NewRandomForest(ForestConfig{})); !errors.Is(err, merr.ErrUntrained) {
		t.Fatalf("forest dump: %v, want ErrUntrained", err)
	}
}

// TestDumpModelUnsupported: only the ensembles persist. A lone tree is
// rejected like the models the pipeline never selects.
func TestDumpModelUnsupported(t *testing.T) {
	if _, err := DumpFlat(NewKNN(KNNConfig{})); err == nil {
		t.Fatal("expected error dumping a non-serializable model")
	}
	X, y := serializeTrainingSet(200, 4, 31)
	tr := NewDecisionTree(TreeConfig{MaxDepth: 6, Seed: 9})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if _, err := DumpFlat(tr); err == nil {
		t.Fatal("a lone tree has no flat form, but DumpFlat accepted it")
	}
}

// TestLoadFlatRejectsBadUnions: the metadata must name a known kind
// and carry exactly that kind's parameters, over a non-empty table.
func TestLoadFlatRejectsBadUnions(t *testing.T) {
	leaf := []NodeRec{{Thresh: math.Inf(1), Pred: 1}}
	one := func(meta FlatMeta) *FlatModel {
		return &FlatModel{Nodes: leaf, Roots: []int32{0}, Depth: []int32{0}, Meta: meta}
	}
	gbr := &GBRParams{NumStages: 1, LearningRate: 0.1, MaxDepth: 1, Subsample: 1}
	forest := &ForestParams{NumTrees: 1, MaxDepth: 1}
	cases := []struct {
		name string
		flat *FlatModel
	}{
		{"nil", nil},
		{"no payload", one(FlatMeta{Kind: "GBR"})},
		{"two payloads", one(FlatMeta{Kind: "GBR", GBR: gbr, Forest: forest})},
		{"kind mismatch", one(FlatMeta{Kind: "GBR", Forest: forest})},
		{"empty gbr", &FlatModel{Meta: FlatMeta{Kind: "GBR", GBR: gbr}}},
		{"empty forest", &FlatModel{Meta: FlatMeta{Kind: "RFR", Forest: forest}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := LoadFlat(tc.flat, LoadOptions{}); !errors.Is(err, merr.ErrBadArtifact) {
				t.Fatalf("got %v, want ErrBadArtifact", err)
			}
		})
	}
	for _, meta := range []FlatMeta{{Kind: "GBR", GBR: gbr}, {Kind: "RFR", Forest: forest}} {
		if _, err := LoadFlat(one(meta), LoadOptions{}); err != nil {
			t.Fatalf("well-formed %s union rejected: %v", meta.Kind, err)
		}
	}
}

// TestLoadGBRRejectsBadLearningRate: a GBR's learning rate scales
// every tree's output, so loading refuses any rate that is not finite
// and positive, even over an otherwise well-formed one-leaf table.
func TestLoadGBRRejectsBadLearningRate(t *testing.T) {
	for _, lr := range []float64{0, -0.1, math.NaN(), math.Inf(1)} {
		flat := &FlatModel{
			Nodes: []NodeRec{{Thresh: math.Inf(1), Pred: 1}},
			Roots: []int32{0},
			Depth: []int32{0},
			Meta:  FlatMeta{Kind: "GBR", GBR: &GBRParams{NumStages: 1, LearningRate: lr, MaxDepth: 1, Subsample: 1}},
		}
		if _, err := LoadFlat(flat, LoadOptions{}); !errors.Is(err, merr.ErrBadArtifact) {
			t.Fatalf("learning rate %v: got %v, want ErrBadArtifact", lr, err)
		}
	}
}

func TestFlatRoundTripGBR(t *testing.T) {
	g, X := fitFlatGBR(t)
	fm, err := DumpFlat(g)
	if err != nil {
		t.Fatal(err)
	}
	want := cloneFlat(fm)
	loaded, err := LoadFlat(cloneFlat(fm), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertBitEqualPredictions(t, g, loaded, X)

	// Flattening the flat-restored model (which has no pointer trees)
	// reproduces the flat form exactly — metadata included, rebuilt from
	// the loaded config — which keeps re-snapshots byte-identical.
	again, err := DumpFlat(loaded)
	if err != nil {
		t.Fatal(err)
	}
	assertSameFlat(t, want, again)
}

func TestFlatRoundTripForest(t *testing.T) {
	f, X := fitFlatForest(t)
	fm, err := DumpFlat(f)
	if err != nil {
		t.Fatal(err)
	}
	want := cloneFlat(fm)
	loaded, err := LoadFlat(cloneFlat(fm), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertBitEqualPredictions(t, f, loaded, X)
	again, err := DumpFlat(loaded)
	if err != nil {
		t.Fatal(err)
	}
	assertSameFlat(t, want, again)
}

// TestFlatRoundTripTree: a fitted tree's own kernel table passes the
// validator LoadFlat runs and walks to the pointer tree's exact leaf
// values.
func TestFlatRoundTripTree(t *testing.T) {
	X, y := serializeTrainingSet(200, 4, 31)
	for _, depth := range []int{1, 3, 6, 9} {
		tr := NewDecisionTree(TreeConfig{MaxDepth: depth, Seed: int64(depth)})
		if err := tr.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		nt := &tr.tab
		if err := validateNodeTable(nt.nodes, nt.roots, nt.depth); err != nil {
			t.Fatalf("depth %d: fitted tree's table rejected: %v", depth, err)
		}
		for i, x := range X {
			w, g := tr.root.predict(x), nt.walk(nt.roots[0], nt.depth[0], x)
			if math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("depth %d row %d: table walk %v, pointer walk %v", depth, i, g, w)
			}
		}
	}
}

func TestDumpFlatUnfitted(t *testing.T) {
	if _, err := DumpFlat(NewGradientBoosted(GBRConfig{})); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("unfitted GBR: got %v, want ErrNotFitted", err)
	}
	if _, err := DumpFlat(NewKNN(KNNConfig{})); err == nil {
		t.Fatal("non-flat model accepted")
	}
}

// TestNodeRecCodecPortableMatchesFast proves the unsafe little-endian
// bulk path and the portable per-field path produce identical bytes and
// records — the cross-endianness guarantee.
func TestNodeRecCodecPortableMatchesFast(t *testing.T) {
	g, _ := fitFlatGBR(t)
	fm, err := DumpFlat(g)
	if err != nil {
		t.Fatal(err)
	}
	recs := fm.Nodes
	fast := AppendNodeRecs(nil, recs)
	if len(fast) != len(recs)*NodeRecBytes {
		t.Fatalf("encoded %d bytes for %d records", len(fast), len(recs))
	}
	portable := make([]byte, len(recs)*NodeRecBytes)
	for i := range recs {
		putNodeRec(portable[i*NodeRecBytes:], &recs[i])
	}
	if string(fast) != string(portable) {
		t.Fatal("bulk and portable encodings disagree")
	}
	back, err := NodeRecsFromBytes(fast)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		var want NodeRec
		getNodeRec(portable[i*NodeRecBytes:], &want)
		if back[i] != want || back[i] != recs[i] {
			t.Fatalf("record %d corrupted through the codec", i)
		}
	}
	if _, err := NodeRecsFromBytes(fast[:len(fast)-1]); !errors.Is(err, merr.ErrBadArtifact) {
		t.Fatalf("ragged payload: got %v, want ErrBadArtifact", err)
	}
}

func TestLoadFlatRejectsCorruptTables(t *testing.T) {
	g, _ := fitFlatGBR(t)
	good, err := DumpFlat(g)
	if err != nil {
		t.Fatal(err)
	}
	// Locate a leaf and an internal node to corrupt.
	leaf, internal := -1, -1
	for i, nd := range good.Nodes {
		if math.IsInf(nd.Thresh, 1) {
			if leaf < 0 {
				leaf = i
			}
		} else if internal < 0 {
			internal = i
		}
	}
	if leaf < 0 || internal < 0 {
		t.Fatal("test table has no leaf or no internal node")
	}

	cases := []struct {
		name   string
		mutate func(*FlatModel)
	}{
		{"no roots", func(f *FlatModel) { f.Roots = nil; f.Depth = nil }},
		{"ragged depth", func(f *FlatModel) { f.Depth = f.Depth[:len(f.Depth)-1] }},
		{"first root nonzero", func(f *FlatModel) { f.Roots[0] = 1 }},
		{"inverted range", func(f *FlatModel) { f.Roots[1] = f.Roots[0] }},
		{"root beyond table", func(f *FlatModel) { f.Roots[len(f.Roots)-1] = int32(len(f.Nodes)) }},
		// The first tree is intact, so only a range bound keeps its
		// replay from reading past the last node.
		{"root past the table", func(f *FlatModel) {
			f.Nodes = f.Nodes[:f.Roots[1]]
			f.Roots, f.Depth = []int32{0, f.Roots[1] + 5}, f.Depth[:2]
		}},
		{"declared height wrong", func(f *FlatModel) { f.Depth[0]++ }},
		{"height over limit", func(f *FlatModel) { f.Depth[0] = maxTreeDepth + 1 }},
		{"leaf not self-looped", func(f *FlatModel) { f.Nodes[leaf].Left++ }},
		{"leaf with feature", func(f *FlatModel) { f.Nodes[leaf].Feature = 1 }},
		{"leaf nan prediction", func(f *FlatModel) { f.Nodes[leaf].Pred = math.NaN() }},
		{"internal nan threshold", func(f *FlatModel) { f.Nodes[internal].Thresh = math.NaN() }},
		{"internal negative feature", func(f *FlatModel) { f.Nodes[internal].Feature = -1 }},
		{"internal huge feature", func(f *FlatModel) { f.Nodes[internal].Feature = maxFeatureIndex + 1 }},
		{"internal stray prediction", func(f *FlatModel) { f.Nodes[internal].Pred = 1 }},
		{"broken bfs child", func(f *FlatModel) { f.Nodes[internal].Left++ }},
		{"unknown kind", func(f *FlatModel) { f.Meta.Kind = "XGB" }},
		{"wrong params", func(f *FlatModel) { f.Meta.GBR = nil; f.Meta.Forest = &ForestParams{} }},
		{"bad learning rate", func(f *FlatModel) { f.Meta.GBR.LearningRate = 0 }},
		{"nan base", func(f *FlatModel) { f.Meta.Base = math.NaN() }},
		{"negative importance", func(f *FlatModel) { f.Meta.Importances[0] = -1 }},
		{"bad importance", func(f *FlatModel) { f.Meta.Importances[0] = math.NaN() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := cloneFlat(good)
			tc.mutate(bad)
			if _, err := LoadFlat(bad, LoadOptions{}); !errors.Is(err, merr.ErrBadArtifact) {
				t.Fatalf("corrupt table accepted: %v", err)
			}
		})
	}

	// The uncorrupted clone must still load — proving the cases above
	// fail because of the mutation, not the harness.
	if _, err := LoadFlat(cloneFlat(good), LoadOptions{}); err != nil {
		t.Fatalf("pristine clone rejected: %v", err)
	}
}

// TestFlatLoadedModelRefits proves Fit on a flat-restored model fully
// resets it: the next flat dump is exactly a fresh fit's, with nothing
// left over from the restore.
func TestFlatLoadedModelRefits(t *testing.T) {
	g, _ := fitFlatGBR(t)
	fm, err := DumpFlat(g)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFlat(cloneFlat(fm), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	X2, y2 := serializeTrainingSet(150, 5, 99)
	if err := loaded.Fit(X2, y2); err != nil {
		t.Fatal(err)
	}
	fresh := NewGradientBoosted(g.Config)
	if err := fresh.Fit(X2, y2); err != nil {
		t.Fatal(err)
	}
	got, err := DumpFlat(loaded)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DumpFlat(fresh)
	if err != nil {
		t.Fatal(err)
	}
	assertSameFlat(t, want, got)
}

// FuzzLoadFlat feeds hostile tables to LoadFlat: node records,
// little-endian int32 root and depth arrays, and a GBR/forest switch
// over fixed valid metadata. It must never panic, every rejection must
// classify as ErrBadArtifact, and an accepted model must walk every
// tree of the table without leaving it, with Predict equal to
// PredictAll bit for bit on rows wide enough for every split feature.
// Outputs need not be finite: validation admits large finite leaves
// whose sums overflow.
func FuzzLoadFlat(f *testing.F) {
	int32Bytes := func(v []int32) []byte {
		var b []byte
		for _, x := range v {
			b = binary.LittleEndian.AppendUint32(b, uint32(x))
		}
		return b
	}
	int32s := func(b []byte) []int32 {
		v := make([]int32, len(b)/4)
		for i := range v {
			v[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
		return v
	}
	seed := func(fm *FlatModel, gbr bool) {
		f.Add(AppendNodeRecs(nil, fm.Nodes), int32Bytes(fm.Roots), int32Bytes(fm.Depth), gbr)
	}
	X, y := serializeTrainingSet(120, 4, 17)
	g := NewGradientBoosted(GBRConfig{NumStages: 9, MaxDepth: 2, Seed: 17})
	rf := NewRandomForest(ForestConfig{NumTrees: 9, MaxDepth: 2, Seed: 17})
	var fm *FlatModel
	for _, m := range []Regressor{g, rf} {
		if err := m.Fit(X, y); err != nil {
			f.Fatal(err)
		}
		var err error
		if fm, err = DumpFlat(m); err != nil {
			f.Fatal(err)
		}
		seed(fm, m == g)
	}
	seed(&FlatModel{Nodes: []NodeRec{{Thresh: math.Inf(1), Pred: 1}}, Roots: []int32{0}, Depth: []int32{0}}, true)
	// The forest's first tree, declaring a second root past its end.
	seed(&FlatModel{Nodes: fm.Nodes[:fm.Roots[1]], Roots: []int32{0, fm.Roots[1] + 5}, Depth: fm.Depth[:2]}, false)

	f.Fuzz(func(t *testing.T, nodes, roots, depth []byte, gbr bool) {
		recs, err := NodeRecsFromBytes(nodes[:len(nodes)/NodeRecBytes*NodeRecBytes])
		if err != nil {
			t.Fatal(err)
		}
		fm := &FlatModel{Nodes: recs, Roots: int32s(roots), Depth: int32s(depth)}
		if gbr {
			fm.Meta = FlatMeta{Kind: "GBR", Base: 0.5, GBR: &GBRParams{NumStages: 1, LearningRate: 0.1, MaxDepth: 1, Subsample: 1}}
		} else {
			fm.Meta = FlatMeta{Kind: "RFR", Forest: &ForestParams{NumTrees: 1, MaxDepth: 1}}
		}
		m, err := LoadFlat(fm, LoadOptions{Workers: 2})
		if err != nil {
			if !errors.Is(err, merr.ErrBadArtifact) {
				t.Fatalf("rejection not classified as ErrBadArtifact: %v", err)
			}
			return
		}
		maxFeature := 0
		for _, nd := range recs {
			maxFeature = max(maxFeature, int(nd.Feature))
		}
		// The 19 rows are overlapping windows of one buffer, so a table
		// that splits on a feature near maxFeatureIndex does not cost 19
		// full-width rows.
		const rows = 19
		rng := rand.New(rand.NewSource(int64(len(recs))))
		buf := make([]float64, maxFeature+rows)
		for i := range buf {
			buf[i] = rng.NormFloat64() * 100
		}
		probe := make([][]float64, rows)
		for i := range probe {
			probe[i] = buf[i : i+maxFeature+1]
		}
		all := m.(BatchRegressor).PredictAll(probe)
		for i, x := range probe {
			if p := m.Predict(x); math.Float64bits(p) != math.Float64bits(all[i]) {
				t.Fatalf("row %d: Predict %v, PredictAll %v", i, p, all[i])
			}
		}
	})
}
