// Package registry is the on-disk versioned model registry behind a
// serving fleet: a directory of immutable published artifacts plus an
// atomically-updated CURRENT pointer naming the version every replica
// should serve. It is the deployment half of the train-once/serve-many
// split — merchbench publishes and promotes, merchserved resolves and
// (on SIGHUP or POST /reloadz) re-resolves.
//
// Layout under the registry root:
//
//	models/<version>/artifact.merch   — the published artifact, immutable
//	models/<version>/artifact.sha256  — its SHA-256, recorded at publish
//	CURRENT                           — "<version>\n", the promoted version
//	PREVIOUS                          — the version CURRENT replaced
//
// Every pointer write goes through store.AtomicWriteFile (write, fsync,
// rename, fsync directory entry), so a crash never leaves a torn or
// unsynced promotion. Publishing verifies the artifact restores and
// records its digest; every read of the artifact is checked against that
// digest (Promote and Verify hash the file; Resolve hands the digest to
// the replica that reads it), so bit rot or a tampered artifact fails
// loudly as merr.ErrBadArtifact instead of being served.
package registry

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"merchandiser"
	"merchandiser/internal/merr"
	"merchandiser/internal/store"
)

const (
	modelsDir    = "models"
	artifactName = "artifact.merch"
	shaName      = "artifact.sha256"
	currentFile  = "CURRENT"
	previousFile = "PREVIOUS"
)

// Entry describes one published version.
type Entry struct {
	Version string `json:"version"`
	Path    string `json:"path"`
	SHA256  string `json:"sha256"`
	Bytes   int64  `json:"bytes"`
	// Current reports whether this version is the promoted one.
	Current bool `json:"current"`
}

// Registry is a handle on a registry root directory. Methods are safe
// for concurrent use within a process; cross-process safety comes from
// every mutation being an atomic rename.
type Registry struct {
	root string
	mu   sync.Mutex
}

func badf(format string, args ...any) error {
	return merr.Errorf(merr.ErrBadArtifact, "registry: "+format, args...)
}

// Open opens (creating if needed) the registry rooted at root.
func Open(root string) (*Registry, error) {
	if root == "" {
		return nil, badf("empty registry root")
	}
	if err := os.MkdirAll(filepath.Join(root, modelsDir), 0o755); err != nil {
		return nil, fmt.Errorf("registry: open %s: %w", root, err)
	}
	return &Registry{root: root}, nil
}

// validVersion bounds version names to safe path components: the same
// character set as artifact section names, no traversal, max 64 bytes.
func validVersion(v string) bool {
	if v == "" || len(v) > 64 {
		return false
	}
	for _, c := range v {
		ok := c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-' || c == '_' || c == '.'
		if !ok {
			return false
		}
	}
	return v != "." && v != ".."
}

func (r *Registry) versionDir(v string) string {
	return filepath.Join(r.root, modelsDir, v)
}

// ArtifactPath returns where a version's artifact lives (whether or not
// it is published yet).
func (r *Registry) ArtifactPath(v string) string {
	return filepath.Join(r.versionDir(v), artifactName)
}

// Publish copies the artifact at src into the registry as version, after
// verifying it restores as a System, and records its SHA-256. Versions
// are immutable: publishing an existing version fails.
func (r *Registry) Publish(version, src string) (Entry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !validVersion(version) {
		return Entry{}, badf("invalid version name %q", version)
	}
	dir := r.versionDir(version)
	if _, err := os.Stat(filepath.Join(dir, artifactName)); err == nil {
		return Entry{}, badf("version %q is already published (versions are immutable)", version)
	}
	data, err := os.ReadFile(src)
	if err != nil {
		return Entry{}, fmt.Errorf("registry: publish %s: %w", version, err)
	}
	// Integrity gate: the registry stores only bytes a replica can
	// restore (strict container decode, then the system and its model),
	// so Promote can never point the fleet at an artifact every replica
	// would refuse.
	if _, err := merchandiser.Restore(context.TODO(), bytes.NewReader(data)); err != nil {
		return Entry{}, fmt.Errorf("registry: publish %s: %w", version, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Entry{}, fmt.Errorf("registry: publish %s: %w", version, err)
	}
	dst := filepath.Join(dir, artifactName)
	if err := store.AtomicWriteFile(dst, data); err != nil {
		return Entry{}, err
	}
	// Record the digest of what actually landed on disk, not of the
	// source buffer — re-reading closes the loop on the copy itself.
	sum, n, err := store.FileSHA256(dst)
	if err != nil {
		return Entry{}, err
	}
	if err := store.AtomicWriteFile(filepath.Join(dir, shaName), []byte(sum+"\n")); err != nil {
		return Entry{}, err
	}
	return Entry{Version: version, Path: dst, SHA256: sum, Bytes: n}, nil
}

// recordedSHA reads the digest file a publish left behind.
func (r *Registry) recordedSHA(version string) (string, error) {
	raw, err := os.ReadFile(filepath.Join(r.versionDir(version), shaName))
	if err != nil {
		return "", fmt.Errorf("registry: version %s: %w", version, err)
	}
	return strings.TrimSpace(string(raw)), nil
}

// Verify recomputes the artifact digest for version and checks it
// against the digest recorded at publish time.
func (r *Registry) Verify(version string) (Entry, error) {
	if !validVersion(version) {
		return Entry{}, badf("invalid version name %q", version)
	}
	want, err := r.recordedSHA(version)
	if err != nil {
		return Entry{}, err
	}
	path := r.ArtifactPath(version)
	got, n, err := store.FileSHA256(path)
	if err != nil {
		return Entry{}, err
	}
	if got != want {
		return Entry{}, badf("version %s is corrupt: recorded sha %.16s…, file hashes %.16s…", version, want, got)
	}
	return Entry{Version: version, Path: path, SHA256: got, Bytes: n}, nil
}

// Promote makes version the fleet's CURRENT, verifying its integrity
// first and remembering the displaced version in PREVIOUS for Rollback.
// Both pointer writes are atomic and directory-fsynced.
func (r *Registry) Promote(version string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := r.Verify(version); err != nil {
		return err
	}
	cur, err := r.currentLocked()
	if err == nil && cur == version {
		return nil // already current; keep PREVIOUS meaningful
	}
	if err == nil && cur != "" {
		if err := store.AtomicWriteFile(filepath.Join(r.root, previousFile), []byte(cur+"\n")); err != nil {
			return err
		}
	}
	return store.AtomicWriteFile(filepath.Join(r.root, currentFile), []byte(version+"\n"))
}

// Rollback re-promotes the version recorded in PREVIOUS (the one the
// last Promote displaced) and returns it.
func (r *Registry) Rollback() (string, error) {
	raw, err := os.ReadFile(filepath.Join(r.root, previousFile))
	if err != nil {
		return "", fmt.Errorf("registry: rollback: no previous version: %w", err)
	}
	prev := strings.TrimSpace(string(raw))
	if err := r.Promote(prev); err != nil {
		return "", err
	}
	return prev, nil
}

func (r *Registry) currentLocked() (string, error) {
	raw, err := os.ReadFile(filepath.Join(r.root, currentFile))
	if err != nil {
		return "", merr.Errorf(merr.ErrNotReady, "registry: no version promoted: %v", err)
	}
	v := strings.TrimSpace(string(raw))
	if !validVersion(v) {
		return "", badf("CURRENT names invalid version %q", v)
	}
	return v, nil
}

// Resolve names the promoted version, its artifact path and the digest
// recorded at publish, without reading the artifact (Bytes stays 0) —
// what a replica loads at boot and on reload. Whoever reads the bytes
// must check them against SHA256, as serve does while reading them for
// a restore, so bit rot or a tampered artifact is refused before it is
// served. Before any promotion it fails with merr.ErrNotReady.
func (r *Registry) Resolve() (Entry, error) {
	r.mu.Lock()
	v, err := r.currentLocked()
	r.mu.Unlock()
	if err != nil {
		return Entry{}, err
	}
	sum, err := r.recordedSHA(v)
	if err != nil {
		return Entry{}, err
	}
	return Entry{Version: v, Path: r.ArtifactPath(v), SHA256: sum, Current: true}, nil
}

// List returns every published version in sorted order, with the
// promoted one flagged.
func (r *Registry) List() ([]Entry, error) {
	ents, err := os.ReadDir(filepath.Join(r.root, modelsDir))
	if err != nil {
		return nil, fmt.Errorf("registry: list: %w", err)
	}
	r.mu.Lock()
	cur, _ := r.currentLocked()
	r.mu.Unlock()
	var out []Entry
	for _, de := range ents {
		if !de.IsDir() || !validVersion(de.Name()) {
			continue
		}
		v := de.Name()
		sum, err := r.recordedSHA(v)
		if err != nil {
			continue // half-published directory; not a served version
		}
		path := r.ArtifactPath(v)
		info, err := os.Stat(path)
		if err != nil {
			continue
		}
		out = append(out, Entry{Version: v, Path: path, SHA256: sum, Bytes: info.Size(), Current: v == cur})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Version < out[j].Version })
	return out, nil
}
