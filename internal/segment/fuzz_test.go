package segment

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"fastinvert/internal/store"
)

// FuzzSegmentManifest feeds arbitrary bytes to the manifest parser:
// whatever the input, it must return a validated manifest or an error
// wrapping store.ErrCorruptIndex — never panic, and never accept a
// manifest that violates the invariants the manager relies on.
func FuzzSegmentManifest(f *testing.F) {
	valid, _ := json.Marshal(&Manifest{
		Version: manifestVersion,
		NextDoc: 20,
		NextSeg: 3,
		Segments: []SegmentMeta{
			{ID: 0, File: "seg-000000.post", Dict: "seg-000000.dict",
				FirstDoc: 0, LastDoc: 9, Docs: 10, Lists: 4, Bytes: 128},
			{ID: 2, File: "seg-000002.post", Dict: "seg-000002.dict",
				FirstDoc: 10, LastDoc: 19, Docs: 10, Lists: 2, Bytes: 64},
		},
	})
	f.Add(valid)
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":1,"next_doc":5,"next_seg":1,"segments":[{"id":0,"file":"../evil","dict":"d","first_doc":0,"last_doc":4,"docs":5}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := parseManifest(raw)
		if err != nil {
			if !errors.Is(err, store.ErrCorruptIndex) {
				t.Fatalf("error does not wrap ErrCorruptIndex: %v", err)
			}
			return
		}
		// Accepted manifests must satisfy every invariant the manager
		// assumes without re-checking.
		if m.Version != manifestVersion || m.Purged > m.NextDoc {
			t.Fatalf("accepted invalid manifest: %+v", m)
		}
		prev := int64(-1)
		for _, s := range m.Segments {
			if s.File == "" || s.Dict == "" || s.ID >= m.NextSeg ||
				s.FirstDoc > s.LastDoc || int64(s.FirstDoc) <= prev ||
				s.LastDoc >= m.NextDoc || s.Docs != s.LastDoc-s.FirstDoc+1 {
				t.Fatalf("accepted invalid segment meta: %+v", s)
			}
			prev = int64(s.LastDoc)
		}
	})
}

// FuzzTombstoneBitmap feeds arbitrary bytes to the tombstone parser.
// Corrupt inputs must yield ErrCorruptIndex without panicking or
// allocating beyond the input size; accepted current-version inputs
// must round-trip bit-exactly through marshal, and accepted version 1
// inputs must re-marshal to a file that parses to the same bits.
func FuzzTombstoneBitmap(f *testing.F) {
	b := (&bitmap{}).grown(21)
	for _, d := range []uint32{0, 7, 20} {
		b = b.withDoc(d, 21)
	}
	f.Add(marshalTombstones(b, 21))
	f.Add(marshalTombstones(b.without(b.withDoc(3, 21), 0, 7), 21))
	f.Add(marshalTombstones(&bitmap{}, 0))
	f.Add(tombstonesV1(f, 21, 0, 7, 20))
	f.Add([]byte("FITS"))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, raw []byte) {
		bm, err := parseTombstones(raw)
		if err != nil {
			if !errors.Is(err, store.ErrCorruptIndex) {
				t.Fatalf("error does not wrap ErrCorruptIndex: %v", err)
			}
			return
		}
		// The word slices are bounded by the payload actually present.
		if (len(bm.bits)+len(bm.gone))*8 > len(raw)+14 {
			t.Fatalf("allocated %d bitmap bytes from %d input bytes",
				(len(bm.bits)+len(bm.gone))*8, len(raw))
		}
		if got := bm.countPrefix(bm.numDocs); got != bm.deleted {
			t.Fatalf("deleted = %d but %d bits set", bm.deleted, got)
		}
		out := marshalTombstones(bm, bm.numDocs)
		if binary.LittleEndian.Uint32(raw[4:]) == tombVersion {
			if string(out) != string(raw) {
				t.Fatalf("accepted tombstones do not round-trip")
			}
			return
		}
		back, err := parseTombstones(out)
		if err != nil || !reflect.DeepEqual(back.bits, bm.bits) || back.deleted != bm.deleted {
			t.Fatalf("version 1 tombstones do not survive re-marshalling: %v", err)
		}
	})
}
