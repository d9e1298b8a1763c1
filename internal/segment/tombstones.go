// Package segment implements incremental LSM-style indexing on top of
// the batch pipeline's building blocks: documents stream into an
// in-memory write segment (the memtable — a cpuindexer trie+B-tree
// dictionary plus postings stores), which seals into immutable on-disk
// segments in the run-file format, which background compaction folds
// together with the store package's sharded parallel merge. Deletions
// are tombstone bits filtered at read time and purged at compaction.
// Readers work against generation-stamped immutable views, so queries
// never block on a seal or a compaction — they finish against the view
// they started with while writers swap in the next one.
package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"

	"fastinvert/internal/store"
)

// Tombstone file layout (tombstones.bin, little-endian, version 2):
//
//	magic   u32  "FITS"
//	version u32
//	numDocs u32  documents covered (== manifest NextDoc at write time)
//	deleted u32  set bits in the tombstone payload
//	purged  u32  docs physically removed by compactions (>= the set
//	             bits in the purged payload; see below)
//	crc32   u32  IEEE CRC of both payloads
//	payload      ceil(numDocs/8) bytes, bit d = doc d deleted
//	purged       ceil(numDocs/8) bytes, bit d = doc d physically removed
//
// The file is the record of both counts, so LiveDocs is exact after any
// crash: a compaction that committed its manifest but not its
// tombstones leaves the purged documents counted as deleted, and the
// next compaction moves them over. Version 1 files had no purged field
// or payload; they still load, taking the purged count from the
// manifest with no document marked purged, and that count rides along
// in the purged field of every later file.
//
// The file covers only sealed documents. Tombstones over memtable
// documents live purely in memory: the documents they suppress are
// themselves lost on crash, so persisting the marks without the data
// would leave dangling deletes for docIDs that get re-assigned.
const (
	tombFileName  = "tombstones.bin"
	tombMagic     = 0x53544946 // "FITS" little-endian
	tombVersion   = 2
	tombV1HdrSize = 20
	tombHdrSize   = 24
)

// bitmap is an immutable tombstone snapshot. Bit doc set in bits means
// the document is deleted and its postings may still be on disk; set
// in gone, a compaction has physically removed it. Mutation is
// copy-on-write (withDoc, without): queries load the current pointer
// once and filter against a frozen state, with no locking on the read
// path. gone changes only at compaction, so withDoc and grown share it.
type bitmap struct {
	bits    []uint64
	gone    []uint64
	numDocs uint32 // universe size: docs 0..numDocs-1 are representable
	deleted uint32 // set bits in bits
	purged  uint32 // set bits in gone, plus purges a version 1 file counted
}

func (b *bitmap) has(doc uint32) bool {
	return b != nil && doc < b.numDocs && bitSet(b.bits, doc)
}

// isPurged reports whether a compaction has physically removed doc.
func (b *bitmap) isPurged(doc uint32) bool {
	return b != nil && doc < b.numDocs && bitSet(b.gone, doc)
}

func bitSet(words []uint64, doc uint32) bool {
	w := int(doc >> 6)
	return w < len(words) && words[w]>>(doc&63)&1 != 0
}

// withDoc returns a copy covering numDocs documents with doc marked
// deleted. Returns the receiver unchanged if doc is already deleted or
// purged: a purged document is deleted for good, and marking it again
// would count it twice.
func (b *bitmap) withDoc(doc, numDocs uint32) *bitmap {
	if b.has(doc) || b.isPurged(doc) {
		return b
	}
	nb := &bitmap{
		bits:    make([]uint64, (int(numDocs)+63)/64),
		numDocs: numDocs,
	}
	if b != nil {
		copy(nb.bits, b.bits)
		nb.gone = b.gone
		nb.deleted, nb.purged = b.deleted, b.purged
	}
	nb.bits[doc>>6] |= 1 << (doc & 63)
	nb.deleted++
	return nb
}

// without returns a copy that moves every bit set in purged and
// inside [first, last] from the tombstones to the purged set — the
// documents a compaction just removed physically.
func (b *bitmap) without(purged *bitmap, first, last uint32) *bitmap {
	nb := &bitmap{
		bits:    make([]uint64, len(b.bits)),
		gone:    make([]uint64, len(b.bits)),
		numDocs: b.numDocs,
		deleted: b.deleted,
		purged:  b.purged,
	}
	copy(nb.bits, b.bits)
	copy(nb.gone, b.gone)
	for d := first; d <= last && d < purged.numDocs; d++ {
		if purged.has(d) && nb.has(d) {
			nb.bits[d>>6] &^= 1 << (d & 63)
			nb.gone[d>>6] |= 1 << (d & 63)
			nb.deleted--
			nb.purged++
		}
		if d == ^uint32(0) {
			break
		}
	}
	return nb
}

// grown returns a bitmap covering at least n docs, preserving every
// bit; returns the receiver when it already covers n.
func (b *bitmap) grown(n uint32) *bitmap {
	if b != nil && b.numDocs >= n {
		return b
	}
	nb := &bitmap{bits: make([]uint64, (int(n)+63)/64), numDocs: n}
	if b != nil {
		copy(nb.bits, b.bits)
		nb.gone = b.gone
		nb.deleted, nb.purged = b.deleted, b.purged
	}
	return nb
}

// countPrefix reports the tombstoned docs among [0, n).
func (b *bitmap) countPrefix(n uint32) uint32 {
	if b == nil {
		return 0
	}
	return countWords(b.bits, min(n, b.numDocs))
}

// countWords reports the set bits among docs [0, n) of words.
func countWords(words []uint64, n uint32) uint32 {
	var c uint32
	full := int(n >> 6)
	for w := 0; w < full && w < len(words); w++ {
		c += uint32(bits.OnesCount64(words[w]))
	}
	if rem := n & 63; rem != 0 && full < len(words) {
		c += uint32(bits.OnesCount64(words[full] & (1<<rem - 1)))
	}
	return c
}

// marshalTombstones serializes the first n docs of the bitmap.
func marshalTombstones(b *bitmap, n uint32) []byte {
	size := (int(n) + 7) / 8
	out := make([]byte, tombHdrSize+2*size)
	payload := out[tombHdrSize:]
	for d := uint32(0); d < n; d++ {
		if b.has(d) {
			payload[d>>3] |= 1 << (d & 7)
		}
		if b.isPurged(d) {
			payload[size+int(d>>3)] |= 1 << (d & 7)
		}
	}
	var purged uint32
	if b != nil {
		purged = b.purged
	}
	binary.LittleEndian.PutUint32(out[0:], tombMagic)
	binary.LittleEndian.PutUint32(out[4:], tombVersion)
	binary.LittleEndian.PutUint32(out[8:], n)
	binary.LittleEndian.PutUint32(out[12:], b.countPrefix(n))
	binary.LittleEndian.PutUint32(out[16:], purged)
	binary.LittleEndian.PutUint32(out[20:], crc32.ChecksumIEEE(payload))
	return out
}

// parseTombstones validates and decodes a tombstone file of either
// version. Corruption yields an error wrapping store.ErrCorruptIndex,
// never a panic; every count is checked against the actual byte size
// before any size-proportional allocation (the payload length check is
// against bytes already in hand, and the word slices are bounded by
// it).
func parseTombstones(data []byte) (*bitmap, error) {
	if len(data) < tombV1HdrSize {
		return nil, fmt.Errorf("tombstones: %d bytes, need %d header: %w",
			len(data), tombV1HdrSize, store.ErrCorruptIndex)
	}
	if m := binary.LittleEndian.Uint32(data); m != tombMagic {
		return nil, fmt.Errorf("tombstones: bad magic %#x: %w", m, store.ErrCorruptIndex)
	}
	numDocs := binary.LittleEndian.Uint32(data[8:])
	deleted := binary.LittleEndian.Uint32(data[12:])
	var purged, crc uint32
	var payload []byte
	payloads := 1
	switch v := binary.LittleEndian.Uint32(data[4:]); v {
	case 1:
		crc = binary.LittleEndian.Uint32(data[16:])
		payload = data[tombV1HdrSize:]
	case tombVersion:
		if len(data) < tombHdrSize {
			return nil, fmt.Errorf("tombstones: %d bytes, need %d header: %w",
				len(data), tombHdrSize, store.ErrCorruptIndex)
		}
		purged = binary.LittleEndian.Uint32(data[16:])
		crc = binary.LittleEndian.Uint32(data[20:])
		payload = data[tombHdrSize:]
		payloads = 2
	default:
		return nil, fmt.Errorf("tombstones: unsupported version %d: %w", v, store.ErrCorruptIndex)
	}
	size := (int64(numDocs) + 7) / 8
	if want := int64(payloads) * size; int64(len(payload)) != want {
		return nil, fmt.Errorf("tombstones: %d payload bytes for %d docs, want %d: %w",
			len(payload), numDocs, want, store.ErrCorruptIndex)
	}
	if deleted > numDocs || purged > numDocs-deleted {
		return nil, fmt.Errorf("tombstones: %d deleted and %d purged of %d docs: %w",
			deleted, purged, numDocs, store.ErrCorruptIndex)
	}
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return nil, fmt.Errorf("tombstones: payload CRC %#x, header says %#x: %w",
			got, crc, store.ErrCorruptIndex)
	}
	b := &bitmap{numDocs: numDocs, deleted: deleted, purged: purged}
	var n uint32
	var err error
	if b.bits, n, err = parseBits(payload[:size], numDocs, "deleted"); err != nil {
		return nil, err
	}
	if n != deleted {
		return nil, fmt.Errorf("tombstones: %d deleted bits set, header says %d: %w",
			n, deleted, store.ErrCorruptIndex)
	}
	if payloads == 2 {
		if b.gone, n, err = parseBits(payload[size:], numDocs, "purged"); err != nil {
			return nil, err
		}
		if n > purged {
			return nil, fmt.Errorf("tombstones: %d purged bits set, header counts %d purged: %w",
				n, purged, store.ErrCorruptIndex)
		}
		for w := range b.bits {
			if b.bits[w]&b.gone[w] != 0 {
				return nil, fmt.Errorf("tombstones: a document is both deleted and purged: %w",
					store.ErrCorruptIndex)
			}
		}
	}
	return b, nil
}

// parseBits decodes one payload of numDocs bits and counts them.
func parseBits(payload []byte, numDocs uint32, what string) ([]uint64, uint32, error) {
	words := make([]uint64, (int(numDocs)+63)/64)
	var count uint32
	for i, by := range payload {
		count += uint32(bits.OnesCount8(by))
		words[i>>3] |= uint64(by) << (8 * (i & 7))
	}
	// Trailing bits past numDocs in the final byte must be zero, or
	// has() and countPrefix would disagree about the same file.
	if rem := numDocs & 7; rem != 0 {
		if payload[len(payload)-1]>>rem != 0 {
			return nil, 0, fmt.Errorf("tombstones: %s bits beyond doc %d: %w",
				what, numDocs-1, store.ErrCorruptIndex)
		}
	}
	return words, count, nil
}

// loadTombstones reads dir's tombstone file; a missing file is an
// empty bitmap (nothing deleted), anything else must parse cleanly. A
// missing or version 1 file records no purged count, so it takes
// legacyPurged, the manifest's.
func loadTombstones(dir string, legacyPurged uint32) (*bitmap, error) {
	raw, err := os.ReadFile(filepath.Join(dir, tombFileName))
	if os.IsNotExist(err) {
		return &bitmap{purged: legacyPurged}, nil
	}
	if err != nil {
		return nil, err
	}
	b, err := parseTombstones(raw)
	if err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(raw[4:]) == 1 {
		b.purged = legacyPurged
	}
	return b, nil
}

// saveTombstones atomically persists the sealed-doc prefix [0, n) of
// the bitmap.
func saveTombstones(dir string, b *bitmap, n uint32) error {
	return writeFileAtomic(filepath.Join(dir, tombFileName), marshalTombstones(b, n))
}

// writeFileAtomic writes data via temp file + fsync + rename so a
// crash leaves either the old content or the new, never a torn file.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
