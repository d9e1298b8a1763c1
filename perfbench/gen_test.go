package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func testRanked(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = string(rune('a'+i%26)) + string(rune('a'+i/26%26)) + "x"
	}
	return out
}

func TestQueryLogDeterministicPerSeed(t *testing.T) {
	ranked := testRanked(500)
	phrases := [][2]string{{"aax", "bax"}, {"cax", "dax"}}
	a := queryLog(7, ranked, phrases, liveMix, 2000)
	b := queryLog(7, ranked, phrases, liveMix, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different query logs")
	}
	if reflect.DeepEqual(a, queryLog(8, ranked, phrases, liveMix, 2000)) {
		t.Fatal("different seeds gave the same query log")
	}
	count := map[string]int{}
	for _, q := range a {
		count[q.Mode]++
		if len(q.Words) < 1 || len(q.Words) > 3 {
			t.Fatalf("query %v: %d words", q, len(q.Words))
		}
		seen := map[string]bool{}
		for _, w := range q.Words {
			if seen[w] {
				t.Fatalf("query %v repeats %q", q, w)
			}
			seen[w] = true
		}
		if q.Mode == "topk" && q.K != 10 && q.K != 100 {
			t.Fatalf("query %v: k=%d", q, q.K)
		}
	}
	// 60/10/10/10/10 topk10/topk100/and/or/phrase, within sampling noise.
	if count["topk"] < 1300 || count["topk"] > 1500 || count["phrase"] < 130 || count["and"] < 130 || count["or"] < 130 {
		t.Fatalf("mode mix %v", count)
	}
	for _, q := range queryLog(7, ranked, nil, staticMix, 1000) {
		if q.Mode == "phrase" {
			t.Fatal("static mix drew a phrase query")
		}
	}
}

func TestPlanIngestDeterministicPerSeed(t *testing.T) {
	a := planIngest(3, 1000, 1000)
	if !reflect.DeepEqual(a, planIngest(3, 1000, 1000)) {
		t.Fatal("same seed gave different ingest plans")
	}
	if reflect.DeepEqual(a, planIngest(4, 1000, 1000)) {
		t.Fatal("different seeds gave the same ingest plan")
	}
	if len(a.Order) != 1000 || len(a.Deletes) != 100 {
		t.Fatalf("%d ingests, %d deletes", len(a.Order), len(a.Deletes))
	}
	victims := map[uint32]bool{}
	for i, v := range a.Deletes {
		if (i+1)%deleteEvery != 0 {
			t.Fatalf("delete after ingest %d", i)
		}
		if int(v) >= 1000+i+1 {
			t.Fatalf("delete after ingest %d picks doc %d, not yet assigned", i, v)
		}
		// Repeats are left out on purpose (see planIngest).
		if victims[v] {
			t.Fatalf("doc %d deleted twice", v)
		}
		victims[v] = true
	}
}

func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

func TestCorpusDeterministicPerSeed(t *testing.T) {
	dir := t.TempDir()
	for i, seed := range []int64{5, 5, 6} {
		if _, err := writeCorpus(seed, 2, filepath.Join(dir, string(rune('a'+i)))); err != nil {
			t.Fatal(err)
		}
	}
	a, b, c := readTree(t, filepath.Join(dir, "a")), readTree(t, filepath.Join(dir, "b")), readTree(t, filepath.Join(dir, "c"))
	if len(a) != 2 || !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different corpora")
	}
	for name := range a {
		if bytes.Equal(a[name], c[name]) {
			t.Fatalf("%s: different seeds gave the same file", name)
		}
	}
	docs, plain, err := readDocs(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 128 || plain == 0 {
		t.Fatalf("%d docs, %d bytes", len(docs), plain)
	}
}
