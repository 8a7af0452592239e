// Package rcache is the placement-response cache tier shared by the
// serving daemon (internal/serve) and the fleet front tier
// (internal/gate). Merchandiser's placement is a pure function of the
// trained model and the request — the size-ratio predictor plus greedy
// Algorithm 1 is deterministic — so a response cached under the key
//
//	(model artifact SHA-256, request digest)
//
// is exact, never stale, and self-invalidating: promoting a new model
// changes the SHA half of every key, orphaning old entries without any
// explicit flush, and rolling back re-validates the surviving ones.
//
// The package has three pieces:
//
//   - A canonical binary encoding of a placement request's tasks
//     (EncodeTasks / Hasher): tasks in a canonical sorted order,
//     fixed-width little-endian floats, length-prefixed strings, events
//     sorted by name. The replica's digest is its SHA-256: two requests
//     that differ only in task order or in JSON formatting hash
//     identically; any semantic field change changes the hash. The gate
//     replays stored bodies verbatim and never parses a request, so its
//     digest is the SHA-256 of the body's bytes instead.
//   - Cache, a sharded, bounded LRU over those keys (power-of-two shard
//     count, per-shard mutex, per-shard LRU eviction).
//   - Group, a singleflight layer that collapses concurrent identical
//     misses into one computation.
package rcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"slices"

	"merchandiser/internal/merr"
)

// Digest is a request's SHA-256: of its canonical encoding at the
// replica, of its body's bytes at the gate.
type Digest [32]byte

// Task is the canonical field set of one placement-request task — the
// semantic content of serve.TaskRequest, free of JSON formatting.
type Task struct {
	Name           string
	TPmOnly        float64
	TDramOnly      float64
	Events         map[string]float64
	TotalAccesses  float64
	FootprintPages uint64
}

// TaskList is how callers hand a request's tasks to the Hasher without
// materializing a []Task: the hot path stays allocation-free because
// CanonTask returns by value.
type TaskList interface {
	NTasks() int
	CanonTask(i int) Task
}

// taskSlice adapts []Task to TaskList for EncodeTasks, HashTasks and
// tests.
type taskSlice []Task

func (s taskSlice) NTasks() int          { return len(s) }
func (s taskSlice) CanonTask(i int) Task { return s[i] }

// Encoding format (canonMagic, version 1):
//
//	magic "MRQ1"
//	u32 taskCount
//	taskCount records, sorted by their encoded bytes (name-first order):
//	  u32 len(name) | name
//	  f64bits TPmOnly | f64bits TDramOnly | f64bits TotalAccesses
//	  u64 FootprintPages
//	  u32 len(events)
//	  len(events) pairs, sorted by key: u32 len(key) | key | f64bits value
//
// All integers and float bit patterns are little-endian and fixed
// width, so the encoding is byte-stable across platforms and has none
// of JSON's formatting sensitivity. Sorting the task records by their
// encoded bytes (the name is the record prefix, so the order is
// name-first) makes the encoding invariant under task permutation.
var canonMagic = []byte("MRQ1")

// Decode caps, bounding what a hostile encoding can make DecodeTasks
// allocate before length checks run.
const (
	maxCanonTasks  = 1 << 16
	maxCanonString = 1 << 16
	maxCanonEvents = 1 << 16
)

// appendTask appends one task's canonical record to dst, using keys as
// scratch for event-name sorting, and returns the grown slices.
func appendTask(dst []byte, t Task, keys []string) ([]byte, []string) {
	dst = appendString(dst, t.Name)
	dst = appendFloat(dst, t.TPmOnly)
	dst = appendFloat(dst, t.TDramOnly)
	dst = appendFloat(dst, t.TotalAccesses)
	dst = binary.LittleEndian.AppendUint64(dst, t.FootprintPages)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(t.Events)))
	keys = keys[:0]
	for k := range t.Events {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		dst = appendString(dst, k)
		dst = appendFloat(dst, t.Events[k])
	}
	return dst, keys
}

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func appendFloat(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// EncodeTasks renders tasks in the canonical binary encoding. It is the
// reference implementation the Hasher agrees with byte-for-byte; the
// hot path never calls it (Hasher reuses its scratch instead).
func EncodeTasks(tasks []Task) []byte {
	h := NewHasher()
	h.encode(taskSlice(tasks))
	out := make([]byte, 0, len(h.buf)+8)
	out = append(out, canonMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(tasks)))
	for _, pos := range h.perm {
		out = append(out, h.record(pos)...)
	}
	return out
}

// HashTasks is sha256(EncodeTasks(tasks)) — the request half of a cache
// key, in the convenience form tests and one-shot callers use.
func HashTasks(tasks []Task) Digest {
	d, _ := NewHasher().Hash(taskSlice(tasks))
	return d
}

// DecodeTasks strictly decodes a canonical encoding back into tasks. It
// validates every length against the remaining input before allocating,
// requires the records to appear in canonical (sorted) order and the
// input to end exactly at the last record, and classifies all failures
// as merr.ErrBadArtifact — so encode∘decode is the identity on every
// accepted input, which is what FuzzCanonicalEncode pins.
func DecodeTasks(data []byte) ([]Task, error) {
	r := canonReader{data: data}
	if !bytes.HasPrefix(data, canonMagic) {
		return nil, merr.Errorf(merr.ErrBadArtifact, "rcache: bad canonical magic")
	}
	r.off = len(canonMagic)
	n, err := r.u32("task count")
	if err != nil {
		return nil, err
	}
	if n > maxCanonTasks {
		return nil, merr.Errorf(merr.ErrBadArtifact, "rcache: %d tasks exceed the decode cap", n)
	}
	tasks := make([]Task, 0, min(int(n), 1024))
	var prev []byte
	for i := 0; i < int(n); i++ {
		start := r.off
		t, err := r.task()
		if err != nil {
			return nil, err
		}
		rec := data[start:r.off]
		if prev != nil && bytes.Compare(prev, rec) > 0 {
			return nil, merr.Errorf(merr.ErrBadArtifact, "rcache: task records out of canonical order")
		}
		prev = rec
		tasks = append(tasks, t)
	}
	if r.off != len(data) {
		return nil, merr.Errorf(merr.ErrBadArtifact, "rcache: %d trailing bytes after the last record", len(data)-r.off)
	}
	return tasks, nil
}

type canonReader struct {
	data []byte
	off  int
}

func (r *canonReader) u32(what string) (uint32, error) {
	if len(r.data)-r.off < 4 {
		return 0, merr.Errorf(merr.ErrBadArtifact, "rcache: truncated %s", what)
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}

func (r *canonReader) u64(what string) (uint64, error) {
	if len(r.data)-r.off < 8 {
		return 0, merr.Errorf(merr.ErrBadArtifact, "rcache: truncated %s", what)
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v, nil
}

func (r *canonReader) str(what string) (string, error) {
	n, err := r.u32(what + " length")
	if err != nil {
		return "", err
	}
	if n > maxCanonString {
		return "", merr.Errorf(merr.ErrBadArtifact, "rcache: %s length %d exceeds the decode cap", what, n)
	}
	if len(r.data)-r.off < int(n) {
		return "", merr.Errorf(merr.ErrBadArtifact, "rcache: truncated %s", what)
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *canonReader) task() (Task, error) {
	var t Task
	var err error
	if t.Name, err = r.str("task name"); err != nil {
		return t, err
	}
	fields := []*float64{&t.TPmOnly, &t.TDramOnly, &t.TotalAccesses}
	for _, f := range fields {
		bits, err := r.u64("task field")
		if err != nil {
			return t, err
		}
		*f = math.Float64frombits(bits)
	}
	if t.FootprintPages, err = r.u64("footprint"); err != nil {
		return t, err
	}
	ne, err := r.u32("event count")
	if err != nil {
		return t, err
	}
	if ne > maxCanonEvents {
		return t, merr.Errorf(merr.ErrBadArtifact, "rcache: %d events exceed the decode cap", ne)
	}
	if ne > 0 {
		t.Events = make(map[string]float64, min(int(ne), 64))
		var prevKey string
		for j := 0; j < int(ne); j++ {
			k, err := r.str("event name")
			if err != nil {
				return t, err
			}
			if j > 0 && k <= prevKey {
				return t, merr.Errorf(merr.ErrBadArtifact, "rcache: event names out of canonical order")
			}
			prevKey = k
			bits, err := r.u64("event value")
			if err != nil {
				return t, err
			}
			t.Events[k] = math.Float64frombits(bits)
		}
	}
	return t, nil
}

// Hasher is a reusable canonical encoder+hasher. One Hash call encodes
// every task into an internal scratch buffer, sorts the records into
// canonical order, and returns the SHA-256 of the canonical encoding
// plus the sort permutation. After warm-up a Hasher allocates nothing,
// which is what keeps a cache hit off the allocator entirely; pool
// Hashers across requests (they are not safe for concurrent use).
type Hasher struct {
	h    hash.Hash
	buf  []byte   // concatenated task records
	offs []int    // record boundaries: record i is buf[offs[i]:offs[i+1]]
	perm []int    // canonical order: perm[pos] = caller task index
	keys []string // event-name sort scratch
	head [8]byte  // magic is 4 bytes; head holds magic+count
	sum  [32]byte
	less func(a, b int) int
}

// NewHasher builds a Hasher. Reuse it (e.g. via a sync.Pool): the first
// call sizes the scratch, later calls are allocation-free.
func NewHasher() *Hasher {
	h := &Hasher{h: sha256.New()}
	h.less = func(a, b int) int { return bytes.Compare(h.record(a), h.record(b)) }
	return h
}

func (h *Hasher) record(i int) []byte { return h.buf[h.offs[i]:h.offs[i+1]] }

// encode fills buf/offs with every task's record and perm with the
// canonical (sorted-by-record-bytes, name-first) order.
func (h *Hasher) encode(tl TaskList) {
	n := tl.NTasks()
	h.buf = h.buf[:0]
	h.offs = h.offs[:0]
	h.perm = h.perm[:0]
	h.offs = append(h.offs, 0)
	for i := 0; i < n; i++ {
		h.buf, h.keys = appendTask(h.buf, tl.CanonTask(i), h.keys)
		h.offs = append(h.offs, len(h.buf))
		h.perm = append(h.perm, i)
	}
	slices.SortStableFunc(h.perm, h.less)
}

// Hash returns the canonical digest of the request's tasks and the
// canonical-order permutation: perm[pos] is the caller's task index at
// canonical position pos. The permutation aliases the Hasher's scratch
// and is valid until the next Hash call — copy it if it must outlive
// the Hasher's reuse.
func (h *Hasher) Hash(tl TaskList) (Digest, []int) {
	h.encode(tl)
	h.h.Reset()
	copy(h.head[:4], canonMagic)
	binary.LittleEndian.PutUint32(h.head[4:], uint32(tl.NTasks()))
	h.h.Write(h.head[:])
	for _, pos := range h.perm {
		h.h.Write(h.record(pos))
	}
	var d Digest
	copy(d[:], h.h.Sum(h.sum[:0]))
	return d, h.perm
}
