package access

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	want := map[Kind]string{Stream: "Stream", Strided: "Strided", Stencil: "Stencil", Random: "Random"}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if got := Kind(42).String(); got != "Kind(42)" {
		t.Fatalf("unknown kind string = %q", got)
	}
}

func TestPatternValidate(t *testing.T) {
	valid := []Pattern{
		{Kind: Stream, ElemSize: 8},
		{Kind: Strided, ElemSize: 4, StrideBytes: 128},
		{Kind: Stencil, ElemSize: 8, Points: 7},
		{Kind: Random, ElemSize: 4, Skew: 0.8},
	}
	for _, p := range valid {
		if err := p.Validate(); err != nil {
			t.Fatalf("%+v should validate: %v", p, err)
		}
	}
	invalid := []Pattern{
		{Kind: Stream, ElemSize: 0},
		{Kind: Strided, ElemSize: 4},
		{Kind: Stencil, ElemSize: 8},
		{Kind: Random, ElemSize: 4, Skew: -1},
		{Kind: Kind(9), ElemSize: 4},
	}
	for _, p := range invalid {
		if err := p.Validate(); err == nil {
			t.Fatalf("%+v should be rejected", p)
		}
	}
}

func TestIsRegular(t *testing.T) {
	if !(Pattern{Kind: Stream, ElemSize: 8}).IsRegular() {
		t.Fatal("stream is regular")
	}
	if !(Pattern{Kind: Stencil, ElemSize: 8, Points: 5}).IsRegular() {
		t.Fatal("input-independent stencil is regular")
	}
	if (Pattern{Kind: Stencil, ElemSize: 8, Points: 5, InputDependent: true}).IsRegular() {
		t.Fatal("input-dependent stencil is irregular")
	}
	if (Pattern{Kind: Random, ElemSize: 4}).IsRegular() {
		t.Fatal("random is irregular")
	}
}

func TestMainMemoryAccesses(t *testing.T) {
	llc := 32.0 * 1024 * 1024
	// Stream of doubles: 1/8 of accesses reach memory.
	s := Pattern{Kind: Stream, ElemSize: 8}
	if got := s.MainMemoryAccesses(800, 1e9, llc); got != 100 {
		t.Fatalf("stream accesses = %v, want 100", got)
	}
	// Random on an object much larger than LLC: almost all accesses miss.
	r := Pattern{Kind: Random, ElemSize: 8}
	got := r.MainMemoryAccesses(1000, 32*llc, llc)
	if got < 900 {
		t.Fatalf("random accesses = %v, want > 900", got)
	}
	// Random on an object fitting in LLC: nearly free.
	got = r.MainMemoryAccesses(1000, llc/2, llc)
	if got > 50 {
		t.Fatalf("cached random accesses = %v, want small", got)
	}
	if got := s.MainMemoryAccesses(0, 1e9, llc); got != 0 {
		t.Fatalf("zero program accesses should give zero, got %v", got)
	}
}

func TestMLPOrdering(t *testing.T) {
	stream := Pattern{Kind: Stream, ElemSize: 8}
	strided := Pattern{Kind: Strided, ElemSize: 8, StrideBytes: 64}
	bigStride := Pattern{Kind: Strided, ElemSize: 8, StrideBytes: 1024}
	random := Pattern{Kind: Random, ElemSize: 8}
	if !(stream.MLP() > strided.MLP() && strided.MLP() > bigStride.MLP() && bigStride.MLP() > random.MLP()) {
		t.Fatalf("MLP ordering violated: %v %v %v %v",
			stream.MLP(), strided.MLP(), bigStride.MLP(), random.MLP())
	}
	skewed := Pattern{Kind: Random, ElemSize: 8, Skew: 1}
	if skewed.MLP() <= random.MLP() {
		t.Fatal("skewed random should have slightly higher MLP")
	}
}

func TestPrefetchMissRatio(t *testing.T) {
	if r := (Pattern{Kind: Stream, ElemSize: 8}).PrefetchMissRatio(); r > 0.1 {
		t.Fatalf("stream prefetch miss = %v", r)
	}
	if r := (Pattern{Kind: Random, ElemSize: 8}).PrefetchMissRatio(); r < 0.8 {
		t.Fatalf("random prefetch miss = %v", r)
	}
	indep := Pattern{Kind: Stencil, ElemSize: 8, Points: 5}
	dep := Pattern{Kind: Stencil, ElemSize: 8, Points: 5, InputDependent: true}
	if indep.PrefetchMissRatio() >= dep.PrefetchMissRatio() {
		t.Fatal("input-dependent stencil should prefetch worse")
	}
}

func TestPageWeightsUniform(t *testing.T) {
	p := Pattern{Kind: Stream, ElemSize: 8}
	w := PageWeights(p, 4, 1)
	for i, v := range w {
		if math.Abs(v-0.25) > 1e-12 {
			t.Fatalf("w[%d] = %v, want 0.25", i, v)
		}
	}
	if PageWeights(p, 0, 1) != nil {
		t.Fatal("zero pages should give nil")
	}
}

func TestPageWeightsZipfSkew(t *testing.T) {
	p := Pattern{Kind: Random, ElemSize: 4, Skew: 1.2}
	w := PageWeights(p, 1000, 42)
	var sum, maxW float64
	for _, v := range w {
		sum += v
		if v > maxW {
			maxW = v
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum = %v, want 1", sum)
	}
	if maxW < 10.0/1000 {
		t.Fatalf("skewed max weight %v should far exceed uniform %v", maxW, 1.0/1000)
	}
	// Deterministic for the same seed, different for another.
	w2 := PageWeights(p, 1000, 42)
	for i := range w {
		if w[i] != w2[i] {
			t.Fatal("PageWeights not deterministic for fixed seed")
		}
	}
	w3 := PageWeights(p, 1000, 43)
	same := true
	for i := range w {
		if w[i] != w3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should permute hot pages differently")
	}
}

func TestPageWeightsSumToOneProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, skewRaw uint8) bool {
		n := int(nRaw)%200 + 1
		skew := float64(skewRaw) / 64
		w := PageWeights(Pattern{Kind: Random, ElemSize: 4, Skew: skew}, n, seed)
		var sum float64
		for _, v := range w {
			if v < 0 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9 && len(w) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMLPBoostOrdering(t *testing.T) {
	stream := Pattern{Kind: Stream, ElemSize: 8}
	strided := Pattern{Kind: Strided, ElemSize: 8, StrideBytes: 64}
	stencil := Pattern{Kind: Stencil, ElemSize: 8, Points: 5}
	depStencil := Pattern{Kind: Stencil, ElemSize: 8, Points: 5, InputDependent: true}
	random := Pattern{Kind: Random, ElemSize: 8}
	if !(stream.MLPBoost() >= strided.MLPBoost() && strided.MLPBoost() >= stencil.MLPBoost()) {
		t.Fatal("regular patterns should boost most")
	}
	if depStencil.MLPBoost() >= stencil.MLPBoost() {
		t.Fatal("input-dependent stencil should boost less")
	}
	if random.MLPBoost() >= depStencil.MLPBoost() {
		t.Fatal("random should boost least")
	}
	for _, p := range []Pattern{stream, strided, stencil, depStencil, random} {
		if b := p.MLPBoost(); b < 0 || b > 1 {
			t.Fatalf("boost %v out of range for %v", b, p.Kind)
		}
	}
}
