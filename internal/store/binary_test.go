package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"merchandiser/internal/merr"
)

func testSlotSection() *SlotSection {
	s := &SlotSection{Kind: 7, RecordSize: 24, Tail: []byte(`{"k":"v"}`)}
	for i := 0; i < 5; i++ {
		rec := make([]byte, 24)
		for j := range rec {
			rec[j] = byte(i*31 + j)
		}
		s.Records = append(s.Records, rec...)
	}
	copy(s.Aux[:], "aux-cross-check")
	return s
}

func TestSlotSectionRoundTrip(t *testing.T) {
	s := testSlotSection()
	data, err := EncodeSlotSection(s)
	if err != nil {
		t.Fatal(err)
	}
	// Layout invariants: header and every region is 64-byte aligned, so
	// the full section is checksum-offset (32) past a 64 multiple.
	if len(data)%slotAlign != slotChecksumBytes {
		t.Fatalf("section length %d is not 64-aligned plus checksum", len(data))
	}
	if !IsSlotSection(data) {
		t.Fatal("encoded section does not sniff as a slot")
	}
	if IsSlotSection([]byte("{\"json\":1}")) {
		t.Fatal("JSON sniffs as a slot")
	}
	d, err := DecodeSlotSection(data)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != s.Kind || d.RecordSize != s.RecordSize || d.Count() != 5 ||
		!bytes.Equal(d.Records, s.Records) || !bytes.Equal(d.Tail, s.Tail) || d.Aux != s.Aux {
		t.Fatalf("decoded section differs: %+v", d)
	}
	again, err := EncodeSlotSection(d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("encode∘decode is not byte-identical")
	}
}

func TestSlotEncodeRejectsBadShapes(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    SlotSection
	}{
		{"zero record size", SlotSection{RecordSize: 0}},
		{"huge record size", SlotSection{RecordSize: maxSlotRecordSize + 1}},
		{"ragged records", SlotSection{RecordSize: 24, Records: make([]byte, 25)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := EncodeSlotSection(&tc.s); !errors.Is(err, merr.ErrBadArtifact) {
				t.Fatalf("got %v, want ErrBadArtifact", err)
			}
		})
	}
}

func TestSlotDecodeRejectsCorruption(t *testing.T) {
	good, err := EncodeSlotSection(testSlotSection())
	if err != nil {
		t.Fatal(err)
	}
	flip := func(off int, v byte) func([]byte) []byte {
		return func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[off] ^= v
			return c
		}
	}
	put32 := func(off int, v uint32) func([]byte) []byte {
		return func(b []byte) []byte {
			c := append([]byte(nil), b...)
			binary.LittleEndian.PutUint32(c[off:], v)
			return c
		}
	}
	put64 := func(off int, v uint64) func([]byte) []byte {
		return func(b []byte) []byte {
			c := append([]byte(nil), b...)
			binary.LittleEndian.PutUint64(c[off:], v)
			return c
		}
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"shorter than header", func(b []byte) []byte { return b[:90] }},
		{"bad magic", flip(0, 0x01)},
		{"bad version", put32(8, 999)},
		{"zero record size", put32(16, 0)},
		{"huge record size", put32(16, maxSlotRecordSize+1)},
		{"reserved set", put32(20, 1)},
		{"count overflow", put64(24, math.MaxUint64/24)},
		{"count off by one", put64(24, 6)},
		{"tail overflow", put64(32, math.MaxUint64/2)},
		{"truncated", func(b []byte) []byte { return b[:len(b)-1] }},
		{"extended", func(b []byte) []byte { return append(append([]byte(nil), b...), 0) }},
		{"record bit flip", flip(slotHeaderBytes+3, 0x80)},
		{"record padding set", flip(slotHeaderBytes+5*24+2, 0x01)},
		{"tail bit flip", flip(slotHeaderBytes+pad64(5*24)+1, 0x10)},
		{"checksum flip", flip(len(good)-1, 0x01)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeSlotSection(tc.mutate(good)); !errors.Is(err, merr.ErrBadArtifact) {
				t.Fatalf("got %v, want ErrBadArtifact", err)
			}
		})
	}
}

// TestSlotDecodeBoundedAllocation proves a corrupted count field cannot
// size an allocation: decoding a tiny section that claims 2^40 records
// fails fast, allocating only error plumbing.
func TestSlotDecodeBoundedAllocation(t *testing.T) {
	data := make([]byte, slotHeaderBytes+slotChecksumBytes)
	copy(data, SlotMagic)
	binary.LittleEndian.PutUint32(data[8:], SlotVersion)
	binary.LittleEndian.PutUint32(data[16:], 24)
	binary.LittleEndian.PutUint64(data[24:], 1<<40) // hostile count
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeSlotSection(data); err == nil {
			t.Fatal("hostile count accepted")
		}
	})
	if allocs > 16 {
		t.Fatalf("hostile decode allocated %v objects; allocation must not scale with the claimed count", allocs)
	}
}

func TestModelFlatRoundTrip(t *testing.T) {
	a := modelArtifact(t)
	if !a.HasBinaryModel() {
		t.Fatal("binary sections missing after SetModelFlat")
	}
	// Round trip through the container codec too.
	if err := a.SetSystem(testSystemState(t)); err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(bytes.NewReader(encode(t, a)))
	if err != nil {
		t.Fatal(err)
	}
	assertPredictsLike(t, fittedGBR(t), loadModel(t, decoded), 17)
}

func TestModelFlatCrossChecksSections(t *testing.T) {
	a := modelArtifact(t)

	t.Run("missing trees section", func(t *testing.T) {
		b := &Artifact{}
		nodes, _ := a.Get(SectionModelNodes)
		b.Set(SectionModelNodes, nodes)
		if _, err := b.ModelFlat(); !errors.Is(err, merr.ErrBadArtifact) {
			t.Fatalf("got %v, want ErrBadArtifact", err)
		}
	})
	t.Run("swapped kinds", func(t *testing.T) {
		b := &Artifact{}
		nodes, _ := a.Get(SectionModelNodes)
		trees, _ := a.Get(SectionModelTrees)
		b.Set(SectionModelNodes, trees)
		b.Set(SectionModelTrees, nodes)
		if _, err := b.ModelFlat(); !errors.Is(err, merr.ErrBadArtifact) {
			t.Fatalf("got %v, want ErrBadArtifact", err)
		}
	})
	t.Run("tree count mismatch", func(t *testing.T) {
		// Re-encode the trees section with one record chopped: the nodes
		// section's aux count no longer matches.
		trees, _ := a.Get(SectionModelTrees)
		s, err := DecodeSlotSection(trees)
		if err != nil {
			t.Fatal(err)
		}
		chopped := &SlotSection{Kind: s.Kind, RecordSize: s.RecordSize, Aux: s.Aux, Records: s.Records[:len(s.Records)-8], Tail: s.Tail}
		data, err := EncodeSlotSection(chopped)
		if err != nil {
			t.Fatal(err)
		}
		b := &Artifact{}
		nodes, _ := a.Get(SectionModelNodes)
		b.Set(SectionModelNodes, nodes)
		b.Set(SectionModelTrees, data)
		if _, err := b.ModelFlat(); !errors.Is(err, merr.ErrBadArtifact) {
			t.Fatalf("got %v, want ErrBadArtifact", err)
		}
	})
	t.Run("metadata with unknown field", func(t *testing.T) {
		nodes, _ := a.Get(SectionModelNodes)
		s, err := DecodeSlotSection(nodes)
		if err != nil {
			t.Fatal(err)
		}
		bad := &SlotSection{Kind: s.Kind, RecordSize: s.RecordSize, Aux: s.Aux, Records: s.Records, Tail: []byte(`{"kind":"GBR","bogus":1}`)}
		data, err := EncodeSlotSection(bad)
		if err != nil {
			t.Fatal(err)
		}
		trees, _ := a.Get(SectionModelTrees)
		b := &Artifact{}
		b.Set(SectionModelNodes, data)
		b.Set(SectionModelTrees, trees)
		if _, err := b.ModelFlat(); !errors.Is(err, merr.ErrBadArtifact) {
			t.Fatalf("got %v, want ErrBadArtifact", err)
		}
	})
}
