package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"fastinvert"
	"fastinvert/internal/corpus"
	"fastinvert/internal/postings"
	"fastinvert/internal/stopwords"
)

// corpusProfile is the ClueWeb09-like synthetic profile at scale 1
// (64 documents per gzip container file, ~630 tokens per document on
// average), re-seeded so every seed yields a different collection.
func corpusProfile(seed int64) fastinvert.Profile {
	p := fastinvert.ClueWeb09Profile(1)
	p.Seed = seed
	return p
}

// writeCorpus materializes numFiles container files into dir (which
// must not exist yet) and returns the stored (compressed) byte count.
func writeCorpus(seed int64, numFiles int, dir string) (int64, error) {
	return fastinvert.WriteCorpus(corpusProfile(seed), numFiles, dir)
}

// readDocs returns the corpus directory's documents in global docID
// order (file order, then position within the file) and the total
// uncompressed byte count — the order the batch pipeline and the
// reference indexer number documents in.
func readDocs(dir string) (docs [][]byte, plainBytes int64, err error) {
	src, err := fastinvert.OpenCorpusDir(dir)
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < src.NumFiles(); i++ {
		stored, gz, err := src.ReadFile(i)
		if err != nil {
			return nil, 0, err
		}
		plain, err := corpus.Decompress(stored, gz)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", src.FileName(i), err)
		}
		plainBytes += int64(len(plain))
		docs = append(docs, corpus.SplitDocs(plain)...)
	}
	return docs, plainBytes, nil
}

// docSource serves a fixed list of documents as container files of
// perFile documents each, so reference.BuildFromSource numbers them
// 0..len(docs)-1 in list order. The live workload uses it to rebuild
// the reference over documents in the order the live index assigned
// their IDs.
type docSource struct {
	files [][]byte
}

func newDocSource(docs [][]byte, perFile int) *docSource {
	s := &docSource{}
	for lo := 0; lo < len(docs); lo += perFile {
		hi := min(lo+perFile, len(docs))
		var buf []byte
		for _, d := range docs[lo:hi] {
			buf = append(buf, corpus.DocDelim...)
			buf = append(buf, d...)
		}
		s.files = append(s.files, buf)
	}
	return s
}

func (s *docSource) NumFiles() int         { return len(s.files) }
func (s *docSource) FileName(i int) string { return fmt.Sprintf("docs-%05d.txt", i) }
func (s *docSource) ReadFile(i int) ([]byte, bool, error) {
	if i < 0 || i >= len(s.files) {
		return nil, false, fmt.Errorf("docSource: file %d out of range", i)
	}
	return s.files[i], false, nil
}

// queryable reports whether an indexed term can be sent verbatim as a
// query word: the searcher re-normalizes query words (lowercase +
// Porter stem, which is not idempotent) and drops stop words, so only
// terms that normalize to themselves reach their own postings list.
func queryable(term string) bool {
	return term != "" && fastinvert.NormalizeTerm(term) == term &&
		!stopwords.Default().ContainsString(term)
}

// dfRanking lists the queryable terms by descending document frequency
// (ties by term), the ranking the query log draws Zipf ranks from.
func dfRanking(lists map[string]*postings.List) []string {
	terms := make([]string, 0, len(lists))
	for t, l := range lists {
		if l.Len() > 0 && queryable(t) {
			terms = append(terms, t)
		}
	}
	sort.Slice(terms, func(i, j int) bool {
		di, dj := lists[terms[i]].Len(), lists[terms[j]].Len()
		if di != dj {
			return di > dj
		}
		return terms[i] < terms[j]
	})
	return terms
}

// Query is one query-log entry.
type Query struct {
	Mode  string // topk, and, or, phrase
	K     int    // topk only
	Words []string
}

// queryMix is the cumulative share of each query kind in a log.
type queryMix struct {
	topk10, topk100, and, or float64 // the rest is phrase
}

// staticMix: 70% topk k=10, 10% topk k=100, 10% and, 10% or.
var staticMix = queryMix{0.70, 0.80, 0.90, 1.00}

// liveMix adds phrase queries: 60/10/10/10/10.
var liveMix = queryMix{0.60, 0.70, 0.80, 0.90}

// queryLog draws n queries: 1-3 distinct terms per query, each a Zipf
// draw over the df ranking; phrase queries take a two-word phrase that
// occurs in the collection (so most have matches).
//
// The Zipf law is the corpus profile's own term-frequency law (rank k
// drawn with weight (v+k)^-s; s = 1.22, v = 2 for ClueWeb09), applied
// to the df ranking: the log assumes query terms are as skewed as the
// collection's text. That is an assumption, not a figure measured on a
// query log; the README shows how the static metrics move with s.
func queryLog(seed int64, ranked []string, phrases [][2]string, mix queryMix, n int) []Query {
	rng := rand.New(rand.NewSource(seed))
	law := fastinvert.ClueWeb09Profile(1)
	zipf := rand.NewZipf(rng, law.ZipfS, law.ZipfV, uint64(len(ranked)-1))
	out := make([]Query, 0, n)
	for len(out) < n {
		r := rng.Float64()
		q := Query{Mode: "topk", K: 10}
		switch {
		case r < mix.topk10:
		case r < mix.topk100:
			q.K = 100
		case r < mix.and:
			q = Query{Mode: "and"}
		case r < mix.or:
			q = Query{Mode: "or"}
		default:
			if len(phrases) == 0 {
				continue
			}
			p := phrases[rng.Intn(len(phrases))]
			out = append(out, Query{Mode: "phrase", Words: []string{p[0], p[1]}})
			continue
		}
		nt := 1 + rng.Intn(3)
		for len(q.Words) < nt {
			w := ranked[zipf.Uint64()]
			if !contains(q.Words, w) {
				q.Words = append(q.Words, w)
			}
		}
		out = append(out, q)
	}
	return out
}

func contains(ws []string, w string) bool {
	for _, x := range ws {
		if x == w {
			return true
		}
	}
	return false
}

// phrasePairs draws n adjacent queryable term pairs from a positional
// reference: term a at position p and term b at p+1 of the same
// document.
func phrasePairs(seed int64, lists map[string]*postings.List, numDocs int, n int) [][2]string {
	// Forward index: per document, position -> term.
	fwd := make([]map[uint32]string, numDocs)
	for t, l := range lists {
		if !queryable(t) {
			continue
		}
		for i, d := range l.DocIDs {
			if fwd[d] == nil {
				fwd[d] = make(map[uint32]string)
			}
			for _, p := range l.Positions[i] {
				fwd[d][p] = t
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var out [][2]string
	for tries := 0; len(out) < n && tries < 100*n; tries++ {
		d := rng.Intn(numDocs)
		if len(fwd[d]) < 2 {
			continue
		}
		// Map iteration order is random; pick deterministically by
		// sorting the document's positions.
		pos := make([]uint32, 0, len(fwd[d]))
		for p := range fwd[d] {
			pos = append(pos, p)
		}
		sort.Slice(pos, func(i, j int) bool { return pos[i] < pos[j] })
		p := pos[rng.Intn(len(pos))]
		if b, ok := fwd[d][p+1]; ok && b != fwd[d][p] {
			out = append(out, [2]string{fwd[d][p], b})
		}
	}
	return out
}

// ingestPlan is the live workload's write stream: the documents to
// POST in order, with a delete of a random earlier docID after every
// deleteEvery-th ingest.
type ingestPlan struct {
	Order   []int // indexes into the ingest half of the corpus
	Deletes map[int]uint32
}

const deleteEvery = 10

// planIngest shuffles the ingest half (n documents, IDs assigned from
// firstID on) and picks each delete's victim uniformly from the IDs
// assigned before it that are not deleted yet. Repeated deletes are
// left out because their outcome depends on timing: Manager.Delete
// counts a document a second time when a background compaction has
// purged it between the two deletes, so LiveDocs would be one short on
// some runs and right on others.
func planIngest(seed int64, n int, firstID uint32) ingestPlan {
	rng := rand.New(rand.NewSource(seed))
	plan := ingestPlan{Order: rng.Perm(n), Deletes: make(map[int]uint32)}
	deleted := map[uint32]bool{}
	for i := deleteEvery - 1; i < n; i += deleteEvery {
		assigned := int(firstID) + i + 1
		v := uint32(rng.Intn(assigned))
		for deleted[v] {
			v = uint32(rng.Intn(assigned))
		}
		deleted[v] = true
		plan.Deletes[i] = v
	}
	return plan
}

// workDir makes a fresh scratch directory inside the checkout.
func workDir() (string, error) {
	base := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
