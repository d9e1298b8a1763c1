package main

import (
	"errors"
	"math"
	"path/filepath"
	"testing"

	"fastinvert"
	"fastinvert/internal/postings"
	"fastinvert/internal/reference"
)

// tinyLists is a hand-built positional index over four documents:
//
//	doc 0: a b
//	doc 1: a a c
//	doc 2: b a c
//	doc 3: c
func tinyLists() map[string]*postings.List {
	return map[string]*postings.List{
		"a": {DocIDs: []uint32{0, 1, 2}, TFs: []uint32{1, 2, 1}, Positions: [][]uint32{{0}, {0, 1}, {1}}},
		"b": {DocIDs: []uint32{0, 2}, TFs: []uint32{1, 1}, Positions: [][]uint32{{1}, {0}}},
		"c": {DocIDs: []uint32{1, 2, 3}, TFs: []uint32{1, 1, 1}, Positions: [][]uint32{{2}, {2}, {0}}},
	}
}

func TestOracleBooleanAndPhrase(t *testing.T) {
	o := newOracle(tinyLists(), 4)
	if got := o.and([]string{"a", "c"}); !equalDocs(got, []uint32{1, 2}) {
		t.Fatalf("a AND c = %v", got)
	}
	if got := o.or([]string{"b", "c"}); !equalDocs(got, []uint32{0, 1, 2, 3}) {
		t.Fatalf("b OR c = %v", got)
	}
	if got := o.phrase([]string{"a", "b"}); !equalDocs(got, []uint32{0}) {
		t.Fatalf(`"a b" = %v`, got)
	}
	if got := o.phrase([]string{"a", "c"}); !equalDocs(got, []uint32{1, 2}) {
		t.Fatalf(`"a c" = %v`, got)
	}
	if got := o.and([]string{"a", "zz"}); len(got) != 0 {
		t.Fatalf("a AND unknown = %v", got)
	}
	o.dead = map[uint32]bool{2: true}
	if got := o.and([]string{"a", "c"}); !equalDocs(got, []uint32{1}) {
		t.Fatalf("a AND c with doc 2 deleted = %v", got)
	}
}

func equalDocs(a, b []uint32) bool { return checkDocs(a, b) == nil }

func TestBM25ByHand(t *testing.T) {
	o := newOracle(tinyLists(), 4)
	// Lengths 2, 3, 3, 1: average 2.25. Doc 1 for "a": df 3, tf 2.
	idf := math.Log(1 + (4-3+0.5)/(3+0.5))
	norm := 1 - 0.75 + 0.75*3/2.25
	want := idf * 2 * 2.2 / (2 + 1.2*norm)
	all := o.bm25([]string{"a"})
	if len(all) != 3 || all[0].Doc != 1 || !relClose(all[0].Score, want) {
		t.Fatalf("bm25(a) = %v, want doc 1 first with %v", all, want)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Score > all[i-1].Score {
			t.Fatalf("bm25 not sorted: %v", all)
		}
	}
}

func TestCheckTopK(t *testing.T) {
	all := []Scored{{4, 9}, {1, 7}, {2, 5}, {3, 5}, {0, 1}}
	if err := checkTopK(all[:3], all, 3); err != nil {
		t.Fatalf("exact top 3 rejected: %v", err)
	}
	// Docs 2 and 3 tie at the k-th place: either may be returned.
	if err := checkTopK([]Scored{{4, 9}, {1, 7}, {3, 5}}, all, 3); err != nil {
		t.Fatalf("tied alternative rejected: %v", err)
	}
	for name, bad := range map[string][]Scored{
		"short":        all[:2],
		"wrong score":  {{4, 9}, {1, 7.001}, {2, 5}},
		"below k-th":   {{4, 9}, {1, 7}, {0, 1}},
		"missing best": {{1, 7}, {2, 5}, {3, 5}},
		"out of order": {{1, 7}, {4, 9}, {2, 5}},
		"repeated":     {{4, 9}, {4, 9}, {2, 5}},
		"non-matching": {{4, 9}, {1, 7}, {9, 5}},
	} {
		if err := checkTopK(bad, all, 3); err == nil {
			t.Errorf("%s: accepted %v", name, bad)
		}
	}
	if err := checkTopK(nil, nil, 10); err != nil {
		t.Fatalf("no matches: %v", err)
	}
}

func TestCheckTopKLive(t *testing.T) {
	o := newOracle(tinyLists(), 4)
	o.dead = map[uint32]bool{0: true}
	words := []string{"b"}
	if err := o.checkTopKLive([]Scored{{2, 1.5}}, words, 10); err != nil {
		t.Fatalf("valid live answer rejected: %v", err)
	}
	for name, bad := range map[string][]Scored{
		"deleted doc":  {{0, 2}, {2, 1.5}},
		"non-matching": {{3, 1.5}},
		"empty":        nil,
	} {
		if err := o.checkTopKLive(bad, words, 10); err == nil {
			t.Errorf("%s: accepted %v", name, bad)
		}
	}
	words = []string{"a", "c"}
	if err := o.checkTopKLive([]Scored{{1, 3}, {2, 2}, {3, 2}}, words, 3); err != nil {
		t.Fatalf("valid live answer rejected: %v", err)
	}
	if err := o.checkTopKLive([]Scored{{1, 3}, {3, 2}, {2, 2}}, words, 3); err == nil {
		t.Fatal("equal scores out of docID order accepted")
	}
}

// TestCheckIndexCatchesPerturbedList builds a real two-file index and
// checks it against the reference, then against a reference with one
// posting perturbed.
func TestCheckIndexCatchesPerturbedList(t *testing.T) {
	dir := t.TempDir()
	corpusDir := filepath.Join(dir, "corpus")
	if _, err := writeCorpus(9, 2, corpusDir); err != nil {
		t.Fatal(err)
	}
	b, err := buildMerged(corpusDir, filepath.Join(dir, "index"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.idx.Close()
	src, err := fastinvert.OpenCorpusDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := reference.BuildFromSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkIndex(b.idx, ref.Lists); err != nil {
		t.Fatalf("index vs its reference: %v", err)
	}
	term := dfRanking(ref.Lists)[0]
	ref.Lists[term].TFs[0]++
	if err := checkIndex(b.idx, ref.Lists); err == nil {
		t.Fatalf("perturbed tf of %q not caught", term)
	}
	ref.Lists[term].TFs[0]--
	ref.Lists["zzzunindexed"] = &postings.List{DocIDs: []uint32{0}, TFs: []uint32{1}}
	if err := checkIndex(b.idx, ref.Lists); err == nil {
		t.Fatal("term-count mismatch not caught")
	}
	delete(ref.Lists, "zzzunindexed")

	// The measured answers of a query log pass the oracle; a perturbed
	// answer does not.
	o := newOracle(ref.Lists, int(ref.Docs))
	log := queryLog(1, dfRanking(ref.Lists), nil, staticMix, 50)
	s := fastinvert.NewSearcher(b.idx)
	for _, q := range log {
		res, err := searchDirect(s, q)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.checkQuery(q, res, true); err != nil {
			t.Fatalf("direct answer rejected: %v", err)
		}
		if q.Mode == "topk" && len(res.Ranked) > 0 {
			res.Ranked[0].Score *= 1.001
			if err := checkAnswers(o, []recorded{{q, res}}, true); !errors.Is(err, errMismatch) {
				t.Fatalf("perturbed score not caught: %v", err)
			}
		}
	}
}
