package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"merchandiser/internal/ml"
)

// This file is the binary section codec: a versioned, 64-byte-aligned,
// checksummed "slot" format in which the compiled 24-byte interleaved
// node records of the inference kernel ARE the on-disk layout. A slot
// section is a fixed 64-byte header, a fixed-width little-endian record
// array, an optional small JSON tail (model metadata), each zero-padded
// to a 64-byte boundary, and a trailing SHA-256 of everything before
// it:
//
//	offset 0   magic "MRCHSLOT" (8 bytes)
//	offset 8   version   uint32 LE (SlotVersion)
//	offset 12  kind      uint32 LE (what the records are)
//	offset 16  recordSize uint32 LE (bytes per record, 1..4096)
//	offset 20  reserved  uint32 LE (must be zero)
//	offset 24  count     uint64 LE (number of records)
//	offset 32  tailLen   uint64 LE (tail bytes before padding)
//	offset 40  aux       24 bytes (kind-specific, e.g. cross-counts)
//	offset 64  records   count*recordSize bytes, zero-padded to 64
//	...        tail      tailLen bytes, zero-padded to 64
//	...        checksum  SHA-256 of all preceding bytes (32 bytes)
//
// Alignment means a loader that maps or reads the section can hand the
// record array to the kernel as-is (the 24-byte NodeRec stride packs
// exactly 8 records per 3 cache lines). Decoding is strict and bounded:
// sizes are validated against the section length BEFORE anything is
// allocated or summed, so a corrupted count field can never cause an
// over-allocation — the decoder returns subslices of the input it was
// given. Every violation classifies as merr.ErrBadArtifact.
//
// Versioning rules: SlotVersion covers the header layout and the
// meaning of each kind's record/aux/tail encoding. Any incompatible
// change — reordering NodeRec fields, changing a record size, new
// semantics for aux — bumps SlotVersion so old readers reject new
// sections loudly instead of misreading them. Adding a NEW kind is
// backward compatible (readers reject unknown kinds per call site).

// SlotMagic begins every binary slot section.
const SlotMagic = "MRCHSLOT"

// SlotVersion is the slot schema version this package writes and the
// only one it accepts. Version 2 dropped the per-tree configs and
// importances from the node section's metadata tail.
const SlotVersion = 2

// slotHeaderBytes and slotAlign fix the header size and the alignment
// quantum; slotChecksumBytes is the trailing SHA-256.
const (
	slotHeaderBytes   = 64
	slotAlign         = 64
	slotChecksumBytes = 32
	maxSlotRecordSize = 4096
)

// Slot record kinds.
const (
	// SlotKindNodes: 24-byte ml.NodeRec records — the kernel node table.
	// Aux[0:8] is the tree count; the tail is the model's FlatMeta as
	// compact JSON.
	SlotKindNodes = 1
	// SlotKindTrees: 8-byte per-tree index records, root uint32 LE then
	// depth uint32 LE. Aux[0:8] is the node count (cross-check against
	// the nodes section).
	SlotKindTrees = 2
)

// Binary model section names. They travel inside the ordinary artifact
// container next to the JSON sections and are the only way a
// checkpoint carries its model.
const (
	SectionModelNodes = "model.nodes.bin"
	SectionModelTrees = "model.trees.bin"
)

// SlotSection is a decoded (or to-be-encoded) binary section. After
// DecodeSlotSection, Records and Tail are subslices of the input bytes.
type SlotSection struct {
	Kind       uint32
	RecordSize uint32
	Aux        [24]byte
	Records    []byte
	Tail       []byte
}

// Count returns the number of records.
func (s *SlotSection) Count() int {
	if s.RecordSize == 0 {
		return 0
	}
	return len(s.Records) / int(s.RecordSize)
}

func pad64(n int) int { return (n + slotAlign - 1) &^ (slotAlign - 1) }

// EncodeSlotSection encodes s into a fresh byte slice. The output is a
// pure function of s (padding is zeros, the checksum is derived), so
// encode∘decode∘encode is the identity.
func EncodeSlotSection(s *SlotSection) ([]byte, error) {
	if s.RecordSize < 1 || s.RecordSize > maxSlotRecordSize {
		return nil, badf("slot record size %d out of range [1,%d]", s.RecordSize, maxSlotRecordSize)
	}
	if len(s.Records)%int(s.RecordSize) != 0 {
		return nil, badf("slot record payload of %d bytes is not a multiple of %d", len(s.Records), s.RecordSize)
	}
	total := slotHeaderBytes + pad64(len(s.Records)) + pad64(len(s.Tail)) + slotChecksumBytes
	if total > maxSectionBytes {
		return nil, badf("slot section is %d bytes, limit %d", total, maxSectionBytes)
	}
	out := make([]byte, 0, total)
	var hdr [slotHeaderBytes]byte
	copy(hdr[0:8], SlotMagic)
	binary.LittleEndian.PutUint32(hdr[8:], SlotVersion)
	binary.LittleEndian.PutUint32(hdr[12:], s.Kind)
	binary.LittleEndian.PutUint32(hdr[16:], s.RecordSize)
	binary.LittleEndian.PutUint32(hdr[20:], 0) // reserved
	binary.LittleEndian.PutUint64(hdr[24:], uint64(len(s.Records))/uint64(s.RecordSize))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(len(s.Tail)))
	copy(hdr[40:], s.Aux[:])
	out = append(out, hdr[:]...)
	out = append(out, s.Records...)
	out = append(out, make([]byte, pad64(len(s.Records))-len(s.Records))...)
	out = append(out, s.Tail...)
	out = append(out, make([]byte, pad64(len(s.Tail))-len(s.Tail))...)
	sum := sha256.Sum256(out)
	out = append(out, sum[:]...)
	return out, nil
}

// IsSlotSection reports whether data begins with the slot magic.
func IsSlotSection(data []byte) bool {
	return len(data) >= len(SlotMagic) && string(data[:len(SlotMagic)]) == SlotMagic
}

// DecodeSlotSection strictly decodes a slot section. All size fields
// are validated against len(data) before anything is sized from them,
// the checksum must match, and padding must be zero; the returned
// Records and Tail alias data (nothing is allocated proportional to a
// header field). Every failure satisfies errors.Is(err,
// merr.ErrBadArtifact).
func DecodeSlotSection(data []byte) (*SlotSection, error) {
	if len(data) < slotHeaderBytes+slotChecksumBytes {
		return nil, badf("slot section of %d bytes is shorter than header+checksum", len(data))
	}
	if !IsSlotSection(data) {
		return nil, badf("bad slot magic %q", truncate(string(data[:8]), 16))
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != SlotVersion {
		return nil, badf("unsupported slot version %d (supported: %d)", v, SlotVersion)
	}
	kind := binary.LittleEndian.Uint32(data[12:])
	recSize := binary.LittleEndian.Uint32(data[16:])
	if recSize < 1 || recSize > maxSlotRecordSize {
		return nil, badf("slot record size %d out of range [1,%d]", recSize, maxSlotRecordSize)
	}
	if r := binary.LittleEndian.Uint32(data[20:]); r != 0 {
		return nil, badf("slot reserved field is %d, want 0", r)
	}
	count := binary.LittleEndian.Uint64(data[24:])
	tailLen := binary.LittleEndian.Uint64(data[32:])
	// Bound the declared sizes by the section length BEFORE doing any
	// arithmetic that could overflow or any allocation they could size.
	if count > uint64(len(data))/uint64(recSize) {
		return nil, badf("slot declares %d records of %d bytes in a %d-byte section", count, recSize, len(data))
	}
	if tailLen > uint64(len(data)) {
		return nil, badf("slot declares a %d-byte tail in a %d-byte section", tailLen, len(data))
	}
	recBytes := int(count) * int(recSize)
	total := slotHeaderBytes + pad64(recBytes) + pad64(int(tailLen)) + slotChecksumBytes
	if total != len(data) {
		return nil, badf("slot section is %d bytes, layout says %d", len(data), total)
	}
	body, sum := data[:len(data)-slotChecksumBytes], data[len(data)-slotChecksumBytes:]
	got := sha256.Sum256(body)
	if !bytes.Equal(got[:], sum) {
		return nil, badf("slot checksum mismatch")
	}
	records := data[slotHeaderBytes : slotHeaderBytes+recBytes]
	for _, b := range data[slotHeaderBytes+recBytes : slotHeaderBytes+pad64(recBytes)] {
		if b != 0 {
			return nil, badf("slot record padding is non-zero")
		}
	}
	tailOff := slotHeaderBytes + pad64(recBytes)
	tail := data[tailOff : tailOff+int(tailLen)]
	for _, b := range data[tailOff+int(tailLen) : tailOff+pad64(int(tailLen))] {
		if b != 0 {
			return nil, badf("slot tail padding is non-zero")
		}
	}
	s := &SlotSection{Kind: kind, RecordSize: recSize, Records: records, Tail: tail}
	copy(s.Aux[:], data[40:slotHeaderBytes])
	return s, nil
}

// SetModelFlat stores a flat model as the two binary slot sections:
// the kernel node table (with the model metadata as the JSON tail) and
// the per-tree root/depth index.
func (a *Artifact) SetModelFlat(f *ml.FlatModel) error {
	if f == nil {
		return badf("nil flat model")
	}
	if len(f.Roots) == 0 || len(f.Depth) != len(f.Roots) {
		return badf("flat model has %d roots and %d depths", len(f.Roots), len(f.Depth))
	}
	meta, err := json.Marshal(&f.Meta)
	if err != nil {
		return fmt.Errorf("store: encode flat model metadata: %w", err)
	}
	nodes := &SlotSection{
		Kind:       SlotKindNodes,
		RecordSize: ml.NodeRecBytes,
		Records:    ml.AppendNodeRecs(nil, f.Nodes),
		Tail:       meta,
	}
	binary.LittleEndian.PutUint64(nodes.Aux[0:], uint64(len(f.Roots)))
	trees := &SlotSection{Kind: SlotKindTrees, RecordSize: 8}
	trees.Records = make([]byte, 0, 8*len(f.Roots))
	var rec [8]byte
	for k := range f.Roots {
		if f.Roots[k] < 0 || f.Depth[k] < 0 {
			return badf("flat tree %d has negative root or depth", k)
		}
		binary.LittleEndian.PutUint32(rec[0:], uint32(f.Roots[k]))
		binary.LittleEndian.PutUint32(rec[4:], uint32(f.Depth[k]))
		trees.Records = append(trees.Records, rec[:]...)
	}
	binary.LittleEndian.PutUint64(trees.Aux[0:], uint64(len(f.Nodes)))
	nb, err := EncodeSlotSection(nodes)
	if err != nil {
		return err
	}
	tb, err := EncodeSlotSection(trees)
	if err != nil {
		return err
	}
	a.Set(SectionModelNodes, nb)
	a.Set(SectionModelTrees, tb)
	return nil
}

// HasBinaryModel reports whether the artifact carries the binary model
// sections.
func (a *Artifact) HasBinaryModel() bool {
	return a.Has(SectionModelNodes) && a.Has(SectionModelTrees)
}

// ModelFlat decodes the binary model sections back into a flat model.
// The two sections cross-check each other's counts; structural
// validation of the table itself is ml.LoadFlat's job.
func (a *Artifact) ModelFlat() (*ml.FlatModel, error) {
	nodes, err := a.slot(SectionModelNodes, SlotKindNodes, ml.NodeRecBytes)
	if err != nil {
		return nil, err
	}
	trees, err := a.slot(SectionModelTrees, SlotKindTrees, 8)
	if err != nil {
		return nil, err
	}
	treeCount := binary.LittleEndian.Uint64(nodes.Aux[0:])
	nodeCount := binary.LittleEndian.Uint64(trees.Aux[0:])
	if treeCount != uint64(trees.Count()) {
		return nil, badf("nodes section declares %d trees, trees section carries %d", treeCount, trees.Count())
	}
	if nodeCount != uint64(nodes.Count()) {
		return nil, badf("trees section declares %d nodes, nodes section carries %d", nodeCount, nodes.Count())
	}
	recs, err := ml.NodeRecsFromBytes(nodes.Records)
	if err != nil {
		return nil, err
	}
	fm := &ml.FlatModel{Nodes: recs}
	dec := json.NewDecoder(bytes.NewReader(nodes.Tail))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&fm.Meta); err != nil {
		return nil, badWrap("flat model metadata", err)
	}
	if dec.More() {
		return nil, badf("flat model metadata has trailing data")
	}
	n := trees.Count()
	fm.Roots = make([]int32, n)
	fm.Depth = make([]int32, n)
	for k := 0; k < n; k++ {
		root := binary.LittleEndian.Uint32(trees.Records[8*k:])
		depth := binary.LittleEndian.Uint32(trees.Records[8*k+4:])
		if root > 1<<31-1 || depth > 1<<31-1 {
			return nil, badf("flat tree %d has out-of-range root or depth", k)
		}
		fm.Roots[k] = int32(root)
		fm.Depth[k] = int32(depth)
	}
	return fm, nil
}

// slot fetches and decodes one slot section, checking its kind and
// record size against what the registry says the name must carry.
func (a *Artifact) slot(name string, kind, recordSize uint32) (*SlotSection, error) {
	data, ok := a.Get(name)
	if !ok {
		return nil, badf("missing section %q", name)
	}
	s, err := DecodeSlotSection(data)
	if err != nil {
		return nil, badWrap(fmt.Sprintf("section %q", name), err)
	}
	if s.Kind != kind {
		return nil, badf("section %q has slot kind %d, want %d", name, s.Kind, kind)
	}
	if s.RecordSize != recordSize {
		return nil, badf("section %q has record size %d, want %d", name, s.RecordSize, recordSize)
	}
	return s, nil
}
