package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fastinvert/internal/serve"
)

// cacheBudget is the serve cache size for an index: a sixteenth of its
// merged postings, so the head of the query log stays resident while
// the tail misses and evicts.
func cacheBudget(b *built) int64 { return int64(cacheShare * float64(b.merge.Bytes)) }

// runStatic is serve-static-zipf, in setupReps rounds: each round's
// set-up builds, merges and opens the index afresh, then two
// closed-loop clients replay the query log against the static server
// for --seconds/setupReps. Rates and heap are medians over rounds,
// latency percentiles pool the rounds' samples.
func runStatic(c config) (*run, error) {
	r := newRun()
	// Benchmark inputs, untimed: the corpus, its byte and document
	// counts, the reference's posting count and the query log.
	corpusDir := filepath.Join(c.work, "corpus")
	if _, err := writeCorpus(c.corpusSeed, staticFiles, corpusDir); err != nil {
		return r, fmt.Errorf("write corpus: %w", err)
	}
	docs, plainBytes, err := readDocs(corpusDir)
	if err != nil {
		return r, err
	}
	ref, log, err := staticReference(corpusDir, c.querySeed)
	if err != nil {
		return r, err
	}
	refPostings := postingCount(ref.Lists)
	ref = nil

	window := time.Duration(c.seconds) * time.Second / setupReps
	var setup, mbps, docsPerS, buildMs, heap, qps, latMs []float64
	var kept []recorded
	var mergedBytes int64
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(c.work, fmt.Sprintf("index-%d", i))
		b, err := buildMerged(corpusDir, dir, nil)
		if err != nil {
			return r, err
		}
		setup = append(setup, b.wall.Seconds())
		mbps = append(mbps, float64(plainBytes)/1e6/b.wall.Seconds())
		docsPerS = append(docsPerS, float64(len(docs))/b.wall.Seconds())
		buildMs = append(buildMs, ms(b.wall))
		mergedBytes = b.merge.Bytes

		rr, peak, err := staticRound(r, b, log, window)
		b.idx.Close()
		os.RemoveAll(dir)
		if err != nil {
			return r, err
		}
		heap = append(heap, peak)
		qps = append(qps, float64(rr.ok)/rr.wall.Seconds())
		latMs = append(latMs, rr.latMs...)
		if i == 0 {
			kept = rr.kept
		}
	}
	r.set("setup_s", median(setup))
	r.set("build_mbps", median(mbps))
	r.set("ingest_docs_per_s", median(docsPerS))
	setBatchIngestMetrics(r, buildMs)
	r.set("index_bytes_per_posting", float64(mergedBytes)/float64(refPostings))
	r.set("peak_heap_mb", median(heap))
	setQueryMetrics(r, qps, latMs)

	ref, _, err = staticReference(corpusDir, c.querySeed)
	if err != nil {
		return r, err
	}
	return r, checkAnswers(newOracle(ref.Lists, int(ref.Docs)), kept, true)
}

// staticRound serves b's index with the serve-static-zipf cache budget
// and replays the log from its start with loadClients clients for
// window, returning what they saw and the round's peak heap.
func staticRound(r *run, b *built, log []Query, window time.Duration) (replayResult, float64, error) {
	srv := serve.New(b.idx, serve.Config{CacheBytes: cacheBudget(b), Workers: loadClients})
	defer srv.Close()
	lb, err := startLoopback(srv.Handler())
	if err != nil {
		return replayResult{}, 0, err
	}
	defer lb.close()
	hp := startHeapPeak()
	rr := lb.replay(log, replayOpts{
		clients:  loadClients,
		deadline: time.Now().Add(window),
		keep:     keepAnswers,
	})
	peak := hp.stopMB()
	r.op("search", rr.ok+rr.fail, rr.fail)
	cs := srv.CacheStats()
	r.note("cache budget %d B of %d B merged; serve cache hit ratio %.3f, %d evictions",
		cacheBudget(b), b.merge.Bytes, cs.HitRate(), cs.Evictions)
	if rr.fail > 0 {
		return rr, peak, fmt.Errorf("%d of %d queries failed; first: %v", rr.fail, rr.ok+rr.fail, rr.firstErr)
	}
	return rr, peak, nil
}
