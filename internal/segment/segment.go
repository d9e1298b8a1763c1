package segment

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"fastinvert/internal/encoding"
	"fastinvert/internal/postings"
	"fastinvert/internal/store"
	"fastinvert/internal/telemetry"
)

// segment is one immutable sealed segment: an open run-format postings
// file plus its sorted dictionary, reference-counted so a compaction
// can unlink the file while in-flight queries keep reading through the
// still-open descriptor.
type segment struct {
	meta SegmentMeta
	run  *store.RunFile
	dict []store.DictEntry
	refs atomic.Int64

	// keyPrefix starts every PostingsCache key of this segment: its
	// file path, which no later segment reuses (segment IDs only grow).
	keyPrefix string

	// decodes points at the owning Manager's per-codec decode counters
	// (nil for segments opened outside a manager, e.g. in tests).
	decodes *[encoding.NumCodecs]atomic.Uint64
}

// openSegment opens and cross-checks a segment's files against its
// manifest entry. Mismatches wrap store.ErrCorruptIndex.
func openSegment(dir string, meta SegmentMeta) (*segment, error) {
	run, err := store.OpenRunFile(filepath.Join(dir, meta.File))
	if err != nil {
		return nil, fmt.Errorf("segment %d: %w", meta.ID, err)
	}
	if run.NumLists() != meta.Lists {
		run.Close()
		return nil, fmt.Errorf("segment %d: %d lists on disk, manifest says %d: %w",
			meta.ID, run.NumLists(), meta.Lists, store.ErrCorruptIndex)
	}
	if run.NumLists() > 0 {
		if first, last := run.DocRange(); first < meta.FirstDoc || last > meta.LastDoc {
			run.Close()
			return nil, fmt.Errorf("segment %d: doc range [%d,%d] outside manifest [%d,%d]: %w",
				meta.ID, first, last, meta.FirstDoc, meta.LastDoc, store.ErrCorruptIndex)
		}
	}
	df, err := os.Open(filepath.Join(dir, meta.Dict))
	if err != nil {
		run.Close()
		return nil, fmt.Errorf("segment %d: %w", meta.ID, err)
	}
	dict, err := store.ReadDictionary(df)
	df.Close()
	if err != nil {
		run.Close()
		return nil, fmt.Errorf("segment %d dictionary: %w", meta.ID, err)
	}
	if len(dict) != run.NumLists() {
		run.Close()
		return nil, fmt.Errorf("segment %d: %d dictionary terms for %d lists: %w",
			meta.ID, len(dict), run.NumLists(), store.ErrCorruptIndex)
	}
	// refs starts at zero: views are the only owners. The current view
	// always references every current segment, so a segment lives
	// until the last view naming it drains.
	path := filepath.Join(dir, meta.File)
	return &segment{meta: meta, run: run, dict: dict, keyPrefix: path + "\x00"}, nil
}

func (s *segment) retain() { s.refs.Add(1) }

func (s *segment) release() {
	if s.refs.Add(-1) == 0 {
		s.run.Close()
	}
}

// postings returns the term's list in this segment (nil when absent),
// uncached.
func (s *segment) postings(coll int32, term string) (*postings.List, error) {
	return s.postingsCtx(context.Background(), nil, coll, term)
}

// entry finds the term's run-file entry (ok false when absent) under a
// dict span.
func (s *segment) entry(ctx context.Context, coll int32, term string) (store.RunEntry, bool, error) {
	dsp := telemetry.TraceFrom(ctx).StartSpan(telemetry.ReqStageDict)
	e, ok := store.Lookup(s.dict, coll, term)
	dsp.End()
	if !ok {
		return store.RunEntry{}, false, nil
	}
	re, ok := s.run.Find(uint32(e.Collection), uint32(e.Slot))
	if !ok {
		return store.RunEntry{}, false, fmt.Errorf("segment %d: dictionary slot (%d,%d) has no list: %w",
			s.meta.ID, e.Collection, e.Slot, store.ErrCorruptIndex)
	}
	return re, true, nil
}

// cached probes cache (when non-nil) for the term's decoded list under
// a cache span noting hit or miss.
func (s *segment) cached(ctx context.Context, cache PostingsCache, term string) (*postings.List, bool) {
	if cache == nil {
		return nil, false
	}
	csp := telemetry.TraceFrom(ctx).StartSpan(telemetry.ReqStageCache)
	l, ok := cache.Get(s.keyPrefix + term)
	if ok {
		csp.SetNote("hit")
	} else {
		csp.SetNote("miss")
	}
	csp.End()
	return l, ok
}

// countDecode charges one list decode to the entry's codec.
func (s *segment) countDecode(re store.RunEntry) {
	if s.decodes != nil {
		if id := re.Codec(); id < encoding.NumCodecs {
			s.decodes[id].Add(1)
		}
	}
}

// postingsCtx is postings under a (possibly traced) context, read
// through cache when it is non-nil: the dictionary probe gets a dict
// span, the cache probe a cache span, and a miss flows through
// store.RunFile.ReadListCtx for pread/decode spans before its list is
// cached at its encoded size. Absent terms are never cached; the
// in-memory dictionary answers them without I/O.
func (s *segment) postingsCtx(ctx context.Context, cache PostingsCache, coll int32, term string) (*postings.List, error) {
	re, ok, err := s.entry(ctx, coll, term)
	if !ok {
		return nil, err
	}
	if l, ok := s.cached(ctx, cache, term); ok {
		return l, nil
	}
	s.countDecode(re)
	l, err := s.run.ReadListCtx(ctx, re)
	if err != nil {
		return nil, fmt.Errorf("segment %d: %w", s.meta.ID, err)
	}
	if cache != nil {
		cache.PutSized(s.keyPrefix+term, l, int64(re.Length))
	}
	return l, nil
}

// blocksCtx returns the term's block-at-a-time view within this
// segment (nil when absent): a cached decoded list as one exact
// pseudo-block, else the stored skip table for blocked entries or one
// exact pseudo-block for short unblocked lists.
func (s *segment) blocksCtx(ctx context.Context, cache PostingsCache, coll int32, term string) (*store.BlockList, error) {
	re, ok, err := s.entry(ctx, coll, term)
	if !ok {
		return nil, err
	}
	if l, ok := s.cached(ctx, cache, term); ok {
		return store.BlockListFromList(l), nil
	}
	s.countDecode(re)
	bl, err := s.run.ReadBlocksCtx(ctx, re)
	if err != nil {
		return nil, fmt.Errorf("segment %d: %w", s.meta.ID, err)
	}
	if bl != nil {
		return bl, nil
	}
	l, err := s.run.ReadListCtx(ctx, re)
	if err != nil {
		return nil, fmt.Errorf("segment %d: %w", s.meta.ID, err)
	}
	return store.BlockListFromList(l), nil
}

// view is one immutable read snapshot: the sealed segments in
// ascending doc order plus the memtable that was live when the view
// was taken. Queries acquire the current view, finish against it, and
// release it; seals and compactions swap in a new view and release
// the old one, which tears down replaced segments once the last
// in-flight query drains.
type view struct {
	segs []*segment
	mem  *memtable
	gen  uint64
	refs atomic.Int64
}

// newView takes one reference on every segment; the view's own
// lifetime starts at one reference (the manager's).
func newView(segs []*segment, mem *memtable, gen uint64) *view {
	for _, s := range segs {
		s.retain()
	}
	v := &view{segs: segs, mem: mem, gen: gen}
	v.refs.Store(1)
	return v
}

func (v *view) retain() { v.refs.Add(1) }

func (v *view) release() {
	if v.refs.Add(-1) == 0 {
		for _, s := range v.segs {
			s.release()
		}
	}
}
