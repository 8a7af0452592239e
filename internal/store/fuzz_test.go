package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"

	"merchandiser/internal/merr"
	"merchandiser/internal/ml"
)

// FuzzRestoreArtifact drives the full restore path — container decode,
// section decode, validation, model reconstruction — with arbitrary
// bytes. The invariants: decoding never panics; every failure is
// classified as merr.ErrBadArtifact; and anything that decodes
// canonicalizes stably (one re-encode reaches a fixed point).
func FuzzRestoreArtifact(f *testing.F) {
	if golden, err := os.ReadFile(goldenPath); err == nil {
		f.Add(golden)
		// A few targeted corruptions of real input to get the fuzzer past
		// the magic/manifest gate quickly.
		trunc := golden[:len(golden)*2/3]
		f.Add(trunc)
		flipped := append([]byte(nil), golden...)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte(fmt.Sprintf("%s\n{\"version\":%d,\"sections\":[]}\n", Magic, Version)))
	f.Add([]byte(fmt.Sprintf("%s\n{\"version\":%d,\"sections\":[]}\n", Magic, Version+7)))
	f.Add([]byte("not an artifact"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Decode(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, merr.ErrBadArtifact) {
				t.Fatalf("decode failure %v is not classified ErrBadArtifact", err)
			}
			return
		}
		// Arbitrary valid containers may hold non-canonical JSON; one
		// encode pass canonicalizes, after which the round trip must be a
		// fixed point.
		var first bytes.Buffer
		if err := a.Encode(&first); err != nil {
			if !errors.Is(err, merr.ErrBadArtifact) {
				t.Fatalf("re-encode failure %v is not classified ErrBadArtifact", err)
			}
			return
		}
		b, err := Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("canonical re-encode does not decode: %v", err)
		}
		var second bytes.Buffer
		if err := b.Encode(&second); err != nil {
			t.Fatalf("canonical artifact does not re-encode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("canonical encoding is not a fixed point")
		}

		// Section payloads under fuzz either validate or classify.
		if a.Has(SectionSystem) {
			if _, err := a.System(); err != nil && !errors.Is(err, merr.ErrBadArtifact) {
				t.Fatalf("system section failure %v is not classified", err)
			}
		}
		if a.HasBinaryModel() {
			fm, err := a.ModelFlat()
			if err != nil {
				if !errors.Is(err, merr.ErrBadArtifact) {
					t.Fatalf("binary model failure %v is not classified", err)
				}
			} else if _, err := ml.LoadFlat(fm, ml.LoadOptions{}); err != nil && !errors.Is(err, merr.ErrBadArtifact) {
				t.Fatalf("flat model load failure %v is not classified", err)
			}
		}
		if a.Has(SectionAlpha) {
			if _, err := a.Alpha(); err != nil && !errors.Is(err, merr.ErrBadArtifact) {
				t.Fatalf("alpha section failure %v is not classified", err)
			}
		}
		if a.Has(SectionPlan) {
			if _, err := a.Plan(); err != nil && !errors.Is(err, merr.ErrBadArtifact) {
				t.Fatalf("plan section failure %v is not classified", err)
			}
		}
	})
}
