package registry

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"merchandiser"
	"merchandiser/internal/merr"
	"merchandiser/internal/store"
)

// writeArtifact writes a restorable untrained system snapshot to dir and
// returns its path. seq rides in the training metadata so distinct calls
// produce distinct SHAs.
func writeArtifact(t *testing.T, dir string, seq int) string {
	t.Helper()
	sys, err := merchandiser.NewSystem(merchandiser.DefaultSpec(), merchandiser.TrainNone)
	if err != nil {
		t.Fatal(err)
	}
	sys.Meta.Seed = int64(seq)
	path := filepath.Join(dir, fmt.Sprintf("src-%d.merch", seq))
	if err := sys.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPublishPromoteResolve(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(filepath.Join(dir, "reg"))
	if err != nil {
		t.Fatal(err)
	}

	// Before any promotion, Resolve is ErrNotReady.
	if _, err := r.Resolve(); !errors.Is(err, merr.ErrNotReady) {
		t.Fatalf("Resolve before promote: %v, want ErrNotReady", err)
	}

	e1, err := r.Publish("v1", writeArtifact(t, dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if e1.Version != "v1" || e1.SHA256 == "" || e1.Bytes <= 0 {
		t.Fatalf("bad publish entry: %+v", e1)
	}
	// Published but not promoted: still not ready.
	if _, err := r.Resolve(); !errors.Is(err, merr.ErrNotReady) {
		t.Fatalf("Resolve before promote: %v, want ErrNotReady", err)
	}

	if err := r.Promote("v1"); err != nil {
		t.Fatal(err)
	}
	cur, err := r.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if cur.Version != "v1" || cur.SHA256 != e1.SHA256 || !cur.Current {
		t.Fatalf("bad current: %+v", cur)
	}

	e2, err := r.Publish("v2", writeArtifact(t, dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	if e2.SHA256 == e1.SHA256 {
		t.Fatal("distinct artifacts hashed identically")
	}
	if err := r.Promote("v2"); err != nil {
		t.Fatal(err)
	}
	cur, err = r.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if cur.Version != "v2" {
		t.Fatalf("current after second promote: %+v", cur)
	}

	list, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].Version != "v1" || list[1].Version != "v2" {
		t.Fatalf("bad list: %+v", list)
	}
	if list[0].Current || !list[1].Current {
		t.Fatalf("list current flags wrong: %+v", list)
	}

	// Rollback returns to v1.
	prev, err := r.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if prev != "v1" {
		t.Fatalf("rollback promoted %q, want v1", prev)
	}
	cur, err = r.Resolve()
	if err != nil || cur.Version != "v1" {
		t.Fatalf("current after rollback: %+v, %v", cur, err)
	}
}

func TestPublishRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(filepath.Join(dir, "reg"))
	if err != nil {
		t.Fatal(err)
	}
	good := writeArtifact(t, dir, 1)

	// Invalid version names never touch the disk.
	for _, v := range []string{"", "..", "a/b", "V1", "x y", string(make([]byte, 65))} {
		if _, err := r.Publish(v, good); !errors.Is(err, merr.ErrBadArtifact) {
			t.Fatalf("Publish(%q): %v, want ErrBadArtifact", v, err)
		}
	}

	// Garbage bytes are refused by the decode gate.
	junk := filepath.Join(dir, "junk")
	if err := os.WriteFile(junk, []byte("not an artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish("vjunk", junk); !errors.Is(err, merr.ErrBadArtifact) {
		t.Fatalf("Publish(junk): %v, want ErrBadArtifact", err)
	}
	if _, err := os.Stat(r.versionDir("vjunk")); !os.IsNotExist(err) {
		t.Fatal("rejected publish left a version directory behind")
	}

	// Versions are immutable: re-publishing fails.
	if _, err := r.Publish("v1", good); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish("v1", writeArtifact(t, dir, 2)); !errors.Is(err, merr.ErrBadArtifact) {
		t.Fatalf("re-publish: %v, want ErrBadArtifact", err)
	}

	// Promoting an unpublished version fails.
	if err := r.Promote("ghost"); err == nil {
		t.Fatal("promoted an unpublished version")
	}
}

// TestPublishRejectsUnrestorableArtifact: an artifact that decodes but
// whose model does not fit the event list stored beside it would make
// every replica refuse the reload, so Publish refuses it and leaves no
// version directory behind.
func TestPublishRejectsUnrestorableArtifact(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(filepath.Join(dir, "reg"))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := merchandiser.NewSystem(merchandiser.DefaultSpec(), merchandiser.TrainQuick)
	if err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "good.merch")
	if err := sys.SaveFile(good); err != nil {
		t.Fatal(err)
	}
	a, err := store.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	st, err := a.System()
	if err != nil {
		t.Fatal(err)
	}
	// Drop the last event: the model's r_dram splits now index past the
	// feature vector. The system section is still valid on its own, so
	// only a restore can tell.
	st.Events = st.Events[:len(st.Events)-1]
	if err := a.SetSystem(st); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "short-events.merch")
	if err := store.WriteFile(bad, a); err != nil {
		t.Fatal(err)
	}

	if _, err := r.Publish("vbad", bad); !errors.Is(err, merr.ErrBadArtifact) {
		t.Fatalf("Publish(short events): %v, want ErrBadArtifact", err)
	}
	if _, err := os.Stat(r.versionDir("vbad")); !os.IsNotExist(err) {
		t.Fatal("rejected publish left a version directory behind")
	}
	if _, err := r.Publish("vgood", good); err != nil {
		t.Fatalf("Publish(intact): %v", err)
	}
}

func TestCorruptionDetectedOnResolve(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(filepath.Join(dir, "reg"))
	if err != nil {
		t.Fatal(err)
	}
	e, err := r.Publish("v1", writeArtifact(t, dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Promote("v1"); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the stored artifact: Verify and Promote must refuse
	// it, and Resolve must hand the replica the digest recorded at
	// publish, which the rotten bytes no longer hash to.
	path := r.ArtifactPath("v1")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Verify("v1"); !errors.Is(err, merr.ErrBadArtifact) {
		t.Fatalf("Verify on corrupt artifact: %v, want ErrBadArtifact", err)
	}
	if err := r.Promote("v1"); !errors.Is(err, merr.ErrBadArtifact) {
		t.Fatalf("Promote of corrupt artifact: %v, want ErrBadArtifact", err)
	}
	cur, err := r.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := store.FileSHA256(path)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Version != "v1" || cur.SHA256 != e.SHA256 || got == cur.SHA256 {
		t.Fatalf("Resolve on corrupt artifact: %+v (file hashes %s), want v1 with the digest recorded at publish, %s", cur, got, e.SHA256)
	}
}

// TestConcurrentPublishPromote races publishers and promoters against a
// resolver; every successful Resolve() must name a version that was
// fully published (digest verified).
func TestConcurrentPublishPromote(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(filepath.Join(dir, "reg"))
	if err != nil {
		t.Fatal(err)
	}
	const versions = 8
	var wg sync.WaitGroup
	for i := 0; i < versions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v := fmt.Sprintf("v%03d", i)
			if _, err := r.Publish(v, writeArtifact(t, dir, i)); err != nil {
				t.Errorf("publish %s: %v", v, err)
				return
			}
			if err := r.Promote(v); err != nil {
				t.Errorf("promote %s: %v", v, err)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			cur, err := r.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Verify(cur.Version); err != nil {
				t.Fatal(err)
			}
			list, err := r.List()
			if err != nil {
				t.Fatal(err)
			}
			if len(list) != versions {
				t.Fatalf("list has %d versions, want %d", len(list), versions)
			}
			return
		default:
			if cur, err := r.Resolve(); err == nil {
				if _, verr := r.Verify(cur.Version); verr != nil {
					t.Fatalf("resolved a half-published version %s: %v", cur.Version, verr)
				}
			}
		}
	}
}

// TestPublishRejectsOtherVersions: an artifact written under another
// store version — such as one from before the binary-only bump — never
// lands in the registry.
func TestPublishRejectsOtherVersions(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(filepath.Join(dir, "reg"))
	if err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(writeArtifact(t, dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	marker := func(v int) []byte { return []byte(fmt.Sprintf(`{"version":%d`, v)) }
	for _, v := range []int{store.Version - 1, store.Version + 1} {
		old := bytes.Replace(good, marker(store.Version), marker(v), 1)
		if bytes.Equal(old, good) {
			t.Fatal("version marker not found")
		}
		path := filepath.Join(dir, fmt.Sprintf("v%d.merch", v))
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Publish(fmt.Sprintf("old%d", v), path); !errors.Is(err, merr.ErrBadArtifact) {
			t.Fatalf("version %d artifact: got %v, want ErrBadArtifact", v, err)
		}
	}
}
