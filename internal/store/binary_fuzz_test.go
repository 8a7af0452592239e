package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"testing"

	"merchandiser/internal/merr"
	"merchandiser/internal/ml"
)

// FuzzBinaryDecode drives the slot-section decoder with arbitrary
// bytes. Invariants: it never panics or hangs; every rejection
// classifies as merr.ErrBadArtifact via errors.Is; allocation never
// scales with a corrupted count/length field (the decoder returns
// subslices of its input); and anything that decodes re-encodes to the
// exact input bytes (decode∘encode identity), after which the model
// loaders on top either succeed or classify.
func FuzzBinaryDecode(f *testing.F) {
	// Seed with the real binary model sections from the golden fixture
	// plus targeted corruptions, so the fuzzer starts past the magic.
	if golden, err := os.ReadFile(goldenPath); err == nil {
		if a, err := Decode(bytes.NewReader(golden)); err == nil {
			for _, name := range []string{SectionModelNodes, SectionModelTrees} {
				data, _ := a.Get(name)
				f.Add(data)
				f.Add(data[:len(data)*2/3])
				flipped := append([]byte(nil), data...)
				flipped[len(flipped)/2] ^= 0x20
				f.Add(flipped)
				short := append([]byte(nil), data[:slotHeaderBytes+slotChecksumBytes]...)
				f.Add(short)
			}
		}
	}
	// Minimal crafted headers: valid prefix with hostile size fields.
	hdr := make([]byte, slotHeaderBytes+slotChecksumBytes)
	copy(hdr, SlotMagic)
	binary.LittleEndian.PutUint32(hdr[8:], SlotVersion)
	binary.LittleEndian.PutUint32(hdr[16:], 24)
	f.Add(append([]byte(nil), hdr...))
	hostile := append([]byte(nil), hdr...)
	binary.LittleEndian.PutUint64(hostile[24:], 1<<60)
	f.Add(hostile)
	f.Add([]byte(SlotMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSlotSection(data)
		if err != nil {
			if !errors.Is(err, merr.ErrBadArtifact) {
				t.Fatalf("decode failure %v is not classified ErrBadArtifact", err)
			}
			return
		}
		// The slot layout is fully canonical (zero padding, derived
		// checksum), so decode∘encode must reproduce the input exactly.
		again, err := EncodeSlotSection(s)
		if err != nil {
			t.Fatalf("decoded section does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("decode∘encode is not the identity on a valid section")
		}
		// The model layer on top must classify whatever survives framing.
		if s.Kind == SlotKindNodes && s.RecordSize == ml.NodeRecBytes {
			a := &Artifact{}
			a.Set(SectionModelNodes, data)
			a.Set(SectionModelTrees, data) // wrong kind: must classify, not panic
			if _, err := a.ModelFlat(); err != nil && !errors.Is(err, merr.ErrBadArtifact) {
				t.Fatalf("model decode failure %v is not classified", err)
			}
			recs, err := ml.NodeRecsFromBytes(s.Records)
			if err == nil && len(recs) > 0 {
				fm := &ml.FlatModel{Nodes: recs, Roots: []int32{0}, Depth: []int32{0}}
				fm.Meta = ml.FlatMeta{Kind: "RFR", Forest: &ml.ForestParams{NumTrees: 1}}
				if _, err := ml.LoadFlat(fm, ml.LoadOptions{}); err != nil && !errors.Is(err, merr.ErrBadArtifact) {
					t.Fatalf("flat load failure %v is not classified", err)
				}
			}
		}
	})
}
