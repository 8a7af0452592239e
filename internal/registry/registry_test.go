package registry

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"merchandiser/internal/merr"
	"merchandiser/internal/store"
)

// writeArtifact writes a minimal valid artifact to dir and returns its
// path. seq varies the payload so distinct calls produce distinct SHAs.
func writeArtifact(t *testing.T, dir string, seq int) string {
	t.Helper()
	a := &store.Artifact{Tool: "registry-test"}
	if err := a.SetJSON("meta.seq", map[string]int{"seq": seq}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("src-%d.merch", seq))
	if err := store.WriteFile(path, a); err != nil {
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

	// Before any promotion, Current is ErrNotReady.
	if _, err := r.Current(); !errors.Is(err, merr.ErrNotReady) {
		t.Fatalf("Current before promote: %v, want ErrNotReady", err)
	}

	e1, err := r.Publish("v1", writeArtifact(t, dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if e1.Version != "v1" || e1.SHA256 == "" || e1.Bytes <= 0 {
		t.Fatalf("bad publish entry: %+v", e1)
	}
	// Published but not promoted: still not ready.
	if _, err := r.Current(); !errors.Is(err, merr.ErrNotReady) {
		t.Fatalf("Current before promote: %v, want ErrNotReady", err)
	}

	if err := r.Promote("v1"); err != nil {
		t.Fatal(err)
	}
	cur, err := r.Current()
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
	cur, err = r.Current()
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
	cur, err = r.Current()
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

func TestCorruptionDetectedOnResolve(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(filepath.Join(dir, "reg"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish("v1", writeArtifact(t, dir, 1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Promote("v1"); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the stored artifact: Current must refuse to serve it.
	path := r.ArtifactPath("v1")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Current(); !errors.Is(err, merr.ErrBadArtifact) {
		t.Fatalf("Current on corrupt artifact: %v, want ErrBadArtifact", err)
	}
	if _, err := r.Verify("v1"); !errors.Is(err, merr.ErrBadArtifact) {
		t.Fatalf("Verify on corrupt artifact: %v, want ErrBadArtifact", err)
	}
}

// TestConcurrentPublishPromote races publishers and promoters against a
// resolver; every successful Current() must name a version that was
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
			cur, err := r.Current()
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
			if cur, err := r.Current(); err == nil {
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
