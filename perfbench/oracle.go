package main

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"fastinvert"
	"fastinvert/internal/postings"
)

// BM25 parameters of the brute-force scorer (Robertson defaults).
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// errMismatch marks a run whose outputs disagree with an oracle.
var errMismatch = errors.New("output mismatch")

// scoreTol is the relative tolerance between the program's scores and
// the brute-force ones; docs within it of the k-th score tie.
const scoreTol = 1e-9

// Scored is one ranked result.
type Scored struct {
	Doc   uint32  `json:"doc"`
	Score float64 `json:"score"`
}

// oracle answers queries from reference postings lists, independently
// of the program's readers, caches and evaluators.
type oracle struct {
	lists   map[string]*postings.List
	numDocs int      // collection size for IDF
	lens    []uint32 // per-document token counts
	avgLen  float64
	dead    map[uint32]bool // tombstoned documents (live index)
}

// newOracle derives document lengths from the reference lists: a
// document's length is the sum of its term frequencies, i.e. its
// token count after stop-word removal.
func newOracle(lists map[string]*postings.List, numDocs int) *oracle {
	o := &oracle{lists: lists, numDocs: numDocs, lens: make([]uint32, numDocs)}
	for _, l := range lists {
		for i, d := range l.DocIDs {
			o.lens[d] += l.TFs[i]
		}
	}
	var sum float64
	for _, n := range o.lens {
		sum += float64(n)
	}
	if numDocs > 0 {
		o.avgLen = sum / float64(numDocs)
	}
	return o
}

// list is term's reference list without tombstoned documents.
func (o *oracle) list(term string) *postings.List {
	l := o.lists[term]
	if l == nil {
		return &postings.List{}
	}
	if len(o.dead) == 0 {
		return l
	}
	out := &postings.List{}
	for i, d := range l.DocIDs {
		if o.dead[d] {
			continue
		}
		out.DocIDs = append(out.DocIDs, d)
		out.TFs = append(out.TFs, l.TFs[i])
		if l.Positions != nil {
			out.Positions = append(out.Positions, l.Positions[i])
		}
	}
	return out
}

func (o *oracle) and(words []string) []uint32 {
	count := map[uint32]int{}
	for _, w := range words {
		for _, d := range o.list(w).DocIDs {
			count[d]++
		}
	}
	var out []uint32
	for d, c := range count {
		if c == len(words) {
			out = append(out, d)
		}
	}
	return sortedDocs(out)
}

func (o *oracle) or(words []string) []uint32 {
	seen := map[uint32]bool{}
	for _, w := range words {
		for _, d := range o.list(w).DocIDs {
			seen[d] = true
		}
	}
	out := make([]uint32, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	return sortedDocs(out)
}

// phrase: documents where word i occurs at p+i for some p.
func (o *oracle) phrase(words []string) []uint32 {
	pos := make([]map[uint32]map[uint32]bool, len(words))
	for i, w := range words {
		l := o.list(w)
		pos[i] = make(map[uint32]map[uint32]bool, l.Len())
		for j, d := range l.DocIDs {
			set := make(map[uint32]bool, len(l.Positions[j]))
			for _, p := range l.Positions[j] {
				set[p] = true
			}
			pos[i][d] = set
		}
	}
	var out []uint32
	for d, starts := range pos[0] {
	next:
		for p := range starts {
			for i := 1; i < len(words); i++ {
				if !pos[i][d][p+uint32(i)] {
					continue next
				}
			}
			out = append(out, d)
			break
		}
	}
	return sortedDocs(out)
}

// bm25 scores every document matching any word, sorted by descending
// score then ascending docID. Terms contribute in query-word order.
func (o *oracle) bm25(words []string) []Scored {
	scores := map[uint32]float64{}
	n := float64(o.numDocs)
	for _, w := range words {
		l := o.list(w)
		if l.Len() == 0 {
			continue
		}
		df := float64(l.Len())
		idf := math.Log(1 + (n-df+0.5)/(df+0.5))
		for i, d := range l.DocIDs {
			tf := float64(l.TFs[i])
			norm := 1 - bm25B + bm25B*float64(o.lens[d])/o.avgLen
			scores[d] += idf * tf * (bm25K1 + 1) / (tf + bm25K1*norm)
		}
	}
	out := make([]Scored, 0, len(scores))
	for d, s := range scores {
		out = append(out, Scored{d, s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Doc < out[j].Doc
	})
	return out
}

func sortedDocs(ds []uint32) []uint32 {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
}

func relClose(a, b float64) bool {
	return math.Abs(a-b) <= scoreTol*math.Max(math.Abs(a), math.Abs(b))
}

// checkDocs compares a Boolean or phrase result with the oracle's.
func checkDocs(got, want []uint32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d docs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("doc[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

// checkTopK compares a ranked result with the brute-force ranking all
// (every match, best first): the same number of results, each scored
// like the brute force within scoreTol, in non-increasing score order,
// holding every document that beats the k-th score and none that
// falls below it. Documents tied with the k-th score are
// interchangeable.
func checkTopK(got, all []Scored, k int) error {
	n := min(k, len(all))
	if len(got) != n {
		return fmt.Errorf("%d results, want %d", len(got), n)
	}
	if n == 0 {
		return nil
	}
	brute := make(map[uint32]float64, len(all))
	for _, s := range all {
		brute[s.Doc] = s.Score
	}
	kth := all[n-1].Score
	in := make(map[uint32]bool, n)
	for i, g := range got {
		b, ok := brute[g.Doc]
		if !ok {
			return fmt.Errorf("result %d: doc %d matches no query term", i, g.Doc)
		}
		if !relClose(g.Score, b) {
			return fmt.Errorf("result %d: doc %d score %.17g, brute force %.17g", i, g.Doc, g.Score, b)
		}
		if i > 0 && g.Score > got[i-1].Score && !relClose(g.Score, got[i-1].Score) {
			return fmt.Errorf("result %d: score %.17g above its predecessor's %.17g", i, g.Score, got[i-1].Score)
		}
		if b < kth && !relClose(b, kth) {
			return fmt.Errorf("result %d: doc %d scores %.17g, below the k-th score %.17g", i, g.Doc, b, kth)
		}
		if in[g.Doc] {
			return fmt.Errorf("result %d: doc %d repeated", i, g.Doc)
		}
		in[g.Doc] = true
	}
	for _, s := range all[:n] {
		if s.Score > kth && !relClose(s.Score, kth) && !in[s.Doc] {
			return fmt.Errorf("doc %d (score %.17g) missing from the top %d", s.Doc, s.Score, k)
		}
	}
	return nil
}

// checkTopKLive checks the properties a live top-k result must hold
// whatever the scoring function: min(k, matches) results, each live
// and matching a query term, ordered by score descending then docID
// ascending.
func (o *oracle) checkTopKLive(got []Scored, words []string, k int) error {
	matches := o.or(words)
	if want := min(k, len(matches)); len(got) != want {
		return fmt.Errorf("%d results, want %d", len(got), want)
	}
	match := make(map[uint32]bool, len(matches))
	for _, d := range matches {
		match[d] = true
	}
	for i, g := range got {
		if o.dead[g.Doc] {
			return fmt.Errorf("result %d: doc %d is deleted", i, g.Doc)
		}
		if !match[g.Doc] {
			return fmt.Errorf("result %d: doc %d matches no query term", i, g.Doc)
		}
		if i > 0 {
			p := got[i-1]
			if g.Score > p.Score || (g.Score == p.Score && g.Doc <= p.Doc) {
				return fmt.Errorf("result %d: (%d, %.17g) out of order after (%d, %.17g)",
					i, g.Doc, g.Score, p.Doc, p.Score)
			}
		}
	}
	return nil
}

// checkQuery checks one /search answer against the oracle. exactRank
// selects the brute-force BM25 comparison (static index, which carries
// document lengths); otherwise top-k is checked by its properties.
func (o *oracle) checkQuery(q Query, r searchResult, exactRank bool) error {
	var err error
	switch q.Mode {
	case "and":
		err = checkDocs(r.Docs, o.and(q.Words))
	case "or":
		err = checkDocs(r.Docs, o.or(q.Words))
	case "phrase":
		err = checkDocs(r.Docs, o.phrase(q.Words))
	case "topk":
		if exactRank {
			err = checkTopK(r.Ranked, o.bm25(q.Words), q.K)
		} else {
			err = o.checkTopKLive(r.Ranked, q.Words, q.K)
		}
	default:
		err = fmt.Errorf("unknown mode")
	}
	if err != nil {
		return fmt.Errorf("%s k=%d %q: %w", q.Mode, q.K, q.Words, err)
	}
	return nil
}

// checkIndex reads every term's postings back through an opened index
// and compares them with the reference: the same term count, and per
// term the same docIDs and term frequencies.
func checkIndex(idx *fastinvert.Index, ref map[string]*postings.List) error {
	if idx.Terms() != len(ref) {
		return fmt.Errorf("index has %d terms, reference %d", idx.Terms(), len(ref))
	}
	for _, e := range idx.Dictionary() {
		want := ref[e.Term]
		if want == nil {
			return fmt.Errorf("term %q is not in the reference", e.Term)
		}
		got, err := idx.Postings(e.Term)
		if err != nil {
			return fmt.Errorf("term %q: %w", e.Term, err)
		}
		if got.Len() != want.Len() {
			return fmt.Errorf("term %q: %d postings, reference %d", e.Term, got.Len(), want.Len())
		}
		for i := range want.DocIDs {
			if got.DocIDs[i] != want.DocIDs[i] || got.TFs[i] != want.TFs[i] {
				return fmt.Errorf("term %q posting %d: (%d, tf %d), reference (%d, tf %d)",
					e.Term, i, got.DocIDs[i], got.TFs[i], want.DocIDs[i], want.TFs[i])
			}
		}
	}
	return nil
}

// postingCount sums the reference's list lengths.
func postingCount(lists map[string]*postings.List) int64 {
	var n int64
	for _, l := range lists {
		n += int64(l.Len())
	}
	return n
}
