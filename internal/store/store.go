// Package store is the versioned artifact store for everything the
// Merchandiser pipeline trains offline: the correlation-function
// ensemble, per-object α tables, corpus feature statistics and placement
// plans. An artifact is a named set of sections behind a manifest
// carrying the schema version, creation metadata and a SHA-256 digest
// per section, so a checkpoint written on one machine restores bit-exact
// on another — or fails loudly as merr.ErrBadArtifact.
//
// The container format is deliberately simple and deterministic:
//
//	merchandiser-artifact\n
//	<manifest, one line of compact JSON>\n
//	<section payloads, concatenated in manifest order>
//
// Sections are encoded in sorted name order and payloads are canonical
// compact JSON, so encode∘decode is the identity on every artifact this
// package produces (byte-identical round trip — the golden test pins
// it). Decoding is strict: wrong magic, unsupported version, duplicate
// or oversized sections, short payloads, checksum mismatches and
// trailing garbage all fail classified under merr.ErrBadArtifact.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"merchandiser/internal/merr"
)

// Magic is the first line of every artifact.
const Magic = "merchandiser-artifact"

// Version is the schema version this package writes and the only one it
// accepts. Bump it on any incompatible change to the container layout or
// a section payload shape; old readers then fail with ErrBadArtifact
// instead of misreading. Version 2 made the binary slot sections the
// only model encoding: the system section no longer carries a model.
const Version = 2

// Decoding limits. They bound what a hostile or corrupted input can make
// the decoder allocate; real artifacts are far below all of them.
const (
	maxManifestBytes = 1 << 20 // one-line manifest
	maxSectionBytes  = 64 << 20
	maxSections      = 64
)

// SectionInfo is one manifest entry.
type SectionInfo struct {
	Name   string `json:"name"`
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// Manifest is the artifact's self-description: schema version, creation
// metadata and the section table.
type Manifest struct {
	Version int    `json:"version"`
	Tool    string `json:"tool,omitempty"`
	Created string `json:"created,omitempty"`
	// Sections lists payloads in their on-disk order (sorted by name).
	Sections []SectionInfo `json:"sections"`
}

// Artifact is an in-memory checkpoint: creation metadata plus named
// section payloads. The zero value is an empty artifact.
type Artifact struct {
	// Tool identifies the writer (e.g. "merchbench"); informational.
	Tool string
	// Created is an RFC 3339 timestamp, or empty. It is metadata only —
	// leaving it empty keeps artifacts fully deterministic, which the
	// golden fixture relies on.
	Created string

	sections map[string][]byte
}

func badf(format string, args ...any) error {
	return merr.Errorf(merr.ErrBadArtifact, "store: "+format, args...)
}

func badWrap(msg string, err error) error {
	return merr.Wrap(merr.ErrBadArtifact, "store: "+msg, err)
}

// Set stores a raw section payload, replacing any previous payload under
// the same name. The data is not copied.
func (a *Artifact) Set(name string, data []byte) {
	if a.sections == nil {
		a.sections = map[string][]byte{}
	}
	a.sections[name] = data
}

// Get returns a section payload.
func (a *Artifact) Get(name string) ([]byte, bool) {
	data, ok := a.sections[name]
	return data, ok
}

// Has reports whether the artifact carries the named section.
func (a *Artifact) Has(name string) bool {
	_, ok := a.sections[name]
	return ok
}

// Names returns the section names in encoding (sorted) order.
func (a *Artifact) Names() []string {
	names := make([]string, 0, len(a.sections))
	for n := range a.sections {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SetJSON stores v as a section in canonical compact JSON.
func (a *Artifact) SetJSON(name string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: encode section %q: %w", name, err)
	}
	a.Set(name, data)
	return nil
}

// GetJSON decodes a section strictly into v: the section must exist,
// contain exactly one JSON value, and use only fields v knows about.
func (a *Artifact) GetJSON(name string, v any) error {
	data, ok := a.Get(name)
	if !ok {
		return badf("missing section %q", name)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badWrap(fmt.Sprintf("section %q", name), err)
	}
	if dec.More() {
		return badf("section %q has trailing data", name)
	}
	return nil
}

func validSectionName(name string) bool {
	if name == "" || len(name) > 128 {
		return false
	}
	for _, r := range name {
		ok := r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-' || r == '_' || r == '.'
		if !ok {
			return false
		}
	}
	return true
}

// Encode writes the artifact: magic line, one-line manifest, then the
// section payloads in sorted name order. The output is a pure function
// of the artifact's contents.
func (a *Artifact) Encode(w io.Writer) error {
	m := Manifest{Version: Version, Tool: a.Tool, Created: a.Created, Sections: []SectionInfo{}}
	for _, name := range a.Names() {
		if !validSectionName(name) {
			return badf("invalid section name %q", name)
		}
		data := a.sections[name]
		if len(data) > maxSectionBytes {
			return badf("section %q is %d bytes, limit %d", name, len(data), maxSectionBytes)
		}
		sum := sha256.Sum256(data)
		m.Sections = append(m.Sections, SectionInfo{
			Name:   name,
			Bytes:  int64(len(data)),
			SHA256: hex.EncodeToString(sum[:]),
		})
	}
	if len(m.Sections) > maxSections {
		return badf("%d sections, limit %d", len(m.Sections), maxSections)
	}
	manifest, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("store: encode manifest: %w", err)
	}
	bw := bufio.NewWriter(w)
	bw.WriteString(Magic)
	bw.WriteByte('\n')
	bw.Write(manifest)
	bw.WriteByte('\n')
	for _, si := range m.Sections {
		bw.Write(a.sections[si.Name])
	}
	return bw.Flush()
}

// Decode reads and strictly validates an artifact: magic, version,
// section table sanity, exact payload lengths, checksums, and no
// trailing bytes. Every failure satisfies errors.Is(err,
// merr.ErrBadArtifact).
func Decode(r io.Reader) (*Artifact, error) {
	br := bufio.NewReader(r)
	magic, err := readLine(br, len(Magic)+1)
	if err != nil {
		return nil, badWrap("reading magic", err)
	}
	if magic != Magic {
		return nil, badf("bad magic %q", truncate(magic, 40))
	}
	manifestLine, err := readLine(br, maxManifestBytes)
	if err != nil {
		return nil, badWrap("reading manifest", err)
	}
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader([]byte(manifestLine)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, badWrap("manifest", err)
	}
	if dec.More() {
		return nil, badf("manifest has trailing data")
	}
	if m.Version != Version {
		return nil, badf("unsupported schema version %d (supported: %d)", m.Version, Version)
	}
	if len(m.Sections) > maxSections {
		return nil, badf("%d sections, limit %d", len(m.Sections), maxSections)
	}
	a := &Artifact{Tool: m.Tool, Created: m.Created}
	prev := ""
	for _, si := range m.Sections {
		if !validSectionName(si.Name) {
			return nil, badf("invalid section name %q", truncate(si.Name, 40))
		}
		if si.Name <= prev {
			return nil, badf("section %q out of order or duplicated", si.Name)
		}
		prev = si.Name
		if si.Bytes < 0 || si.Bytes > maxSectionBytes {
			return nil, badf("section %q declares %d bytes, limit %d", si.Name, si.Bytes, maxSectionBytes)
		}
		data := make([]byte, si.Bytes)
		if _, err := io.ReadFull(br, data); err != nil {
			return nil, badWrap(fmt.Sprintf("section %q truncated", si.Name), err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != si.SHA256 {
			return nil, badf("section %q checksum mismatch: manifest %s, payload %s", si.Name, truncate(si.SHA256, 16), truncate(got, 16))
		}
		a.Set(si.Name, data)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, badf("trailing bytes after last section")
	}
	return a, nil
}

// readLine reads up to limit bytes ending in '\n' and returns the line
// without it. A missing newline or an overlong line is an error.
func readLine(br *bufio.Reader, limit int) (string, error) {
	var buf []byte
	for {
		b, err := br.ReadByte()
		if err != nil {
			return "", err
		}
		if b == '\n' {
			return string(buf), nil
		}
		if len(buf) >= limit {
			return "", fmt.Errorf("line exceeds %d bytes", limit)
		}
		buf = append(buf, b)
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// AtomicWriteFile writes data to path atomically and durably: the bytes
// land in a temporary file in the same directory, are fsynced, replace
// path via rename, and the directory entry itself is fsynced so the
// rename survives a crash. Readers never observe a partial file. This is
// the one write-then-rename dance in the repo — artifact checkpoints and
// the registry's CURRENT pointer both go through it.
func AtomicWriteFile(path string, data []byte) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		return fmt.Errorf("store: write %s: %w", tmp.Name(), err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("store: sync %s: %w", tmp.Name(), err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", tmp.Name(), err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: rename into %s: %w", path, err)
	}
	// Durability of the rename itself: fsync the directory entry. Without
	// this a crash can roll the directory back to the old (or no) file
	// even though the data blocks are on disk.
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err = d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir %s: %w", dir, err)
	}
	return nil
}

// WriteFile encodes the artifact to path atomically via AtomicWriteFile,
// so readers never observe a partial artifact.
func WriteFile(path string, a *Artifact) error {
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		return err
	}
	return AtomicWriteFile(path, buf.Bytes())
}

// FileSHA256 hashes the file at path and returns the hex digest and
// byte length — the artifact identity the registry records on publish
// and the serving daemon stamps into responses and audit logs.
func FileSHA256(path string) (string, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, fmt.Errorf("store: hash %s: %w", path, err)
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, fmt.Errorf("store: hash %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// ReadFile decodes the artifact at path.
func ReadFile(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: read %s: %w", path, err)
	}
	defer f.Close()
	a, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("store: read %s: %w", path, err)
	}
	return a, nil
}
