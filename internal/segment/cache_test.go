package segment

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"sync"
	"testing"

	"fastinvert/internal/postings"
)

// mapCache is a minimal PostingsCache counting its hits and misses.
type mapCache struct {
	mu           sync.Mutex
	m            map[string]*postings.List
	hits, misses int
}

func newMapCache() *mapCache { return &mapCache{m: map[string]*postings.List{}} }

func (c *mapCache) Get(key string) (*postings.List, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.m[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return l, ok
}

func (c *mapCache) PutSized(key string, l *postings.List, _ int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = l
}

func (c *mapCache) counts() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// addSealed adds n documents of the given text and seals them.
func addSealed(t *testing.T, m *Manager, n int, text string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := m.AddDocument(docText(text)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Seal(); err != nil {
		t.Fatal(err)
	}
}

// TestViewKeepsItsTombstones is the regression test for a compaction
// racing a query: a view taken before the compaction commits still
// holds the purged documents' postings, and must be read with the
// tombstones published with it, not with the compaction's bitmap.
func TestViewKeepsItsTombstones(t *testing.T) {
	m, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	addSealed(t, m, 4, "alpha")
	addSealed(t, m, 4, "alpha")
	for _, d := range []uint32{1, 5} {
		if err := m.Delete(d); err != nil {
			t.Fatal(err)
		}
	}
	v, dead, err := m.acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer v.release()
	if err := m.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The commit moved the purged documents out of the tombstones, so
	// pairing the old view with the new bitmap would resurrect them.
	if cur := m.tomb.Load(); cur.has(1) || cur.has(5) {
		t.Fatal("compaction left purged documents tombstoned; the test no longer exercises the race")
	}
	l, err := m.postingsIn(context.Background(), v, dead, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{0, 2, 3, 4, 6, 7}
	if !reflect.DeepEqual(l.DocIDs, want) {
		t.Fatalf("pre-compaction view reads %v, want %v", l.DocIDs, want)
	}
	if l, err = m.Postings("alpha"); err != nil || !reflect.DeepEqual(l.DocIDs, want) {
		t.Fatalf("post-compaction view reads %v (%v), want %v", l.DocIDs, err, want)
	}
}

// TestDeletePurgedDocIsNoop checks that deleting a document a
// compaction already purged neither counts it again nor persists a
// second tombstone.
func TestDeletePurgedDocIsNoop(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	addSealed(t, m, 4, "alpha")
	addSealed(t, m, 4, "beta")
	if err := m.Delete(2); err != nil {
		t.Fatal(err)
	}
	if err := m.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := m.LiveDocs(); got != 7 {
		t.Fatalf("LiveDocs after compaction = %d, want 7", got)
	}
	gen := m.Gen()
	if err := m.Delete(2); err != nil {
		t.Fatal(err)
	}
	if got := m.LiveDocs(); got != 7 {
		t.Fatalf("LiveDocs after deleting a purged doc = %d, want 7", got)
	}
	if m.Gen() != gen {
		t.Fatal("deleting a purged doc advanced the generation")
	}
	if st := m.Stats(); st.Deleted != 0 || st.Purged != 1 {
		t.Fatalf("stats deleted=%d purged=%d, want 0 and 1", st.Deleted, st.Purged)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.LiveDocs(); got != 7 {
		t.Fatalf("LiveDocs after reopen = %d, want 7", got)
	}
	if err := m2.Delete(2); err != nil {
		t.Fatal(err)
	}
	if got := m2.LiveDocs(); got != 7 {
		t.Fatalf("LiveDocs after deleting a purged doc past reopen = %d, want 7", got)
	}
	if m2.IsDeleted(2) {
		t.Fatal("purged doc is tombstoned again after reopen")
	}
}

// TestTombstonesVersion1Loads checks that a tombstone file written
// before purged documents were recorded still opens, with its deleted
// bits intact and no document marked purged.
func TestTombstonesVersion1Loads(t *testing.T) {
	raw := tombstonesV1(t, 21, 0, 7, 20)
	b, err := parseTombstones(raw)
	if err != nil {
		t.Fatal(err)
	}
	if b.numDocs != 21 || b.deleted != 3 || !b.has(7) || b.has(8) || b.isPurged(7) || b.purged != 0 {
		t.Fatalf("version 1 file parsed as %+v", b)
	}
}

// tombstonesV1 builds a version 1 tombstone file over numDocs docs.
func tombstonesV1(t testing.TB, numDocs uint32, deleted ...uint32) []byte {
	t.Helper()
	payload := make([]byte, (numDocs+7)/8)
	for _, d := range deleted {
		payload[d>>3] |= 1 << (d & 7)
	}
	out := make([]byte, tombV1HdrSize, tombV1HdrSize+len(payload))
	binary.LittleEndian.PutUint32(out[0:], tombMagic)
	binary.LittleEndian.PutUint32(out[4:], 1)
	binary.LittleEndian.PutUint32(out[8:], numDocs)
	binary.LittleEndian.PutUint32(out[12:], uint32(len(deleted)))
	binary.LittleEndian.PutUint32(out[16:], crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// TestPostingsCacheAcrossMutations drives a manager with a cache
// installed through an add, a delete of a sealed document, a seal and
// a compaction. After each step every term reads the same as with no
// cache, and sealed-segment lists keep hitting across the add and the
// delete, which touch no sealed segment.
func TestPostingsCacheAcrossMutations(t *testing.T) {
	for _, positional := range []bool{false, true} {
		m, err := Open(t.TempDir(), Options{Positional: positional})
		if err != nil {
			t.Fatal(err)
		}
		addSealed(t, m, 3, "alpha beta")
		addSealed(t, m, 3, "alpha gamma alpha")
		c := newMapCache()
		m.SetPostingsCache(c)
		terms := []string{"alpha", "beta", "gamma", "delta"}
		check := func(step string) {
			t.Helper()
			for _, term := range terms {
				got, err := m.Postings(term)
				if err != nil {
					t.Fatal(err)
				}
				m.SetPostingsCache(nil)
				want, err := m.Postings(term)
				m.SetPostingsCache(c)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("positional=%v %s: cached %q = %+v, uncached %+v",
						positional, step, term, got, want)
				}
			}
		}
		check("warm")
		// hits: the step's reads must hit; misses: they must (or must
		// not) miss, which only a newly sealed or compacted segment does.
		steps := []struct {
			name         string
			run          func() error
			hits, misses bool
		}{
			{"add", func() error { _, err := m.AddDocument(docText("alpha delta")); return err }, true, false},
			{"delete", func() error { return m.Delete(1) }, true, false},
			{"seal", m.Seal, true, true},
			{"compact", func() error { return m.Compact(context.Background()) }, false, true},
		}
		for _, st := range steps {
			if err := st.run(); err != nil {
				t.Fatal(err)
			}
			h0, m0 := c.counts()
			check(st.name)
			h1, m1 := c.counts()
			if (st.hits && h1 == h0) || (m1 > m0) != st.misses {
				t.Fatalf("positional=%v %s: %d hits, %d misses; want hits %v, misses %v",
					positional, st.name, h1-h0, m1-m0, st.hits, st.misses)
			}
		}
		if l, _ := m.Postings("beta"); !reflect.DeepEqual(l.DocIDs, []uint32{0, 2}) {
			t.Fatalf("positional=%v: beta = %v after delete and compaction, want [0 2]", positional, l.DocIDs)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
