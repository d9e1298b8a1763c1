package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fastinvert"
	"fastinvert/internal/reference"
	"fastinvert/internal/serve"
	"fastinvert/internal/store"
	"fastinvert/internal/telemetry"
)

// Workload sizes. Each run measures whole operations, so a run of
// --seconds S makes at least one build and ends after the operation
// running at S.
const (
	buildFiles   = 96       // build-clueweb: ~23 MB uncompressed, ~6100 docs
	staticFiles  = 32       // serve-static-zipf: ~7.7 MB, ~2000 docs
	setupReps    = 5        // set-ups per run; setup_s is their median
	logLen       = 1 << 16  // queries in a log
	loadClients  = 2        // closed-loop clients (nproc on the reference host)
	probeQueries = 1000     // queries per build on a freshly built index
	keepAnswers  = 200      // measured answers per client kept for the oracle
	cacheShare   = 1.0 / 16 // serve cache budget as a share of merged postings
)

// built is one batch build, corpus directory to merged, opened index.
type built struct {
	dir       string
	idx       *fastinvert.Index
	rep       *fastinvert.Report
	merge     *store.MergeStats
	wall      time.Duration // the whole chain
	buildWall time.Duration // Builder.Build
	buildCPU  float64       // process CPU seconds during Builder.Build
	mergeWall time.Duration // Open + Merge + Close
	openWall  time.Duration // the final Open of the merged index
}

// buildMerged runs the paper configuration (6 parsers, 2 CPU indexers,
// 2 simulated GPUs, concurrent executor) over corpusDir into out, then
// merges and reopens the index. obs may be nil.
func buildMerged(corpusDir, out string, obs telemetry.Observer) (*built, error) {
	b := &built{dir: out}
	t0 := time.Now()
	src, err := fastinvert.OpenCorpusDir(corpusDir)
	if err != nil {
		return nil, err
	}
	opts := fastinvert.DefaultOptions()
	opts.Concurrent = true
	opts.OutDir = out
	opts.Observer = obs
	builder, err := fastinvert.NewBuilder(opts)
	if err != nil {
		return nil, err
	}
	cpu0 := cpuSeconds()
	if b.rep, err = builder.Build(src); err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	b.buildCPU = cpuSeconds() - cpu0
	t1 := time.Now()
	idx, err := fastinvert.Open(out)
	if err != nil {
		return nil, fmt.Errorf("open runs: %w", err)
	}
	b.merge, err = idx.Merge()
	idx.Close()
	if err != nil {
		return nil, fmt.Errorf("merge: %w", err)
	}
	t2 := time.Now()
	if b.idx, err = fastinvert.Open(out); err != nil {
		return nil, fmt.Errorf("open merged: %w", err)
	}
	if !b.idx.MergedActive() {
		b.idx.Close()
		return nil, fmt.Errorf("merged index not active: %v", b.idx.MergedErr())
	}
	t3 := time.Now()
	b.wall, b.buildWall, b.mergeWall, b.openWall = t3.Sub(t0), t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	return b, nil
}

// staticReference builds the reference index of a corpus directory and
// the query log drawn over its df ranking.
func staticReference(corpusDir string, querySeed int64) (*reference.Index, []Query, error) {
	src, err := fastinvert.OpenCorpusDir(corpusDir)
	if err != nil {
		return nil, nil, err
	}
	ref, err := reference.BuildFromSource(src)
	if err != nil {
		return nil, nil, fmt.Errorf("reference: %w", err)
	}
	return ref, queryLog(querySeed, dfRanking(ref.Lists), nil, staticMix, logLen), nil
}

// runBuild is build-clueweb, in rounds until --seconds pass (at least
// setupReps): each round's set-up writes the corpus afresh, then one
// build takes it to a merged, opened index and a short query probe runs
// on the fresh index. Spreading set-ups and builds over the run keeps a
// slow spell of a shared host from landing on all of them.
func runBuild(c config) (*run, error) {
	r := newRun()
	// Benchmark inputs, untimed: a copy of the corpus for the reference,
	// the query log and the byte and posting counts.
	inputDir := filepath.Join(c.work, "input")
	if _, err := writeCorpus(c.corpusSeed, buildFiles, inputDir); err != nil {
		return r, fmt.Errorf("write corpus: %w", err)
	}
	docs, plainBytes, err := readDocs(inputDir)
	if err != nil {
		return r, err
	}
	ref, log, err := staticReference(inputDir, c.querySeed)
	if err != nil {
		return r, err
	}
	refPostings := postingCount(ref.Lists)
	ref = nil

	var setup, mbps, docsPerS, buildMs, qps, heap, latMs []float64
	var kept []recorded
	var last *built
	deadline := time.Now().Add(time.Duration(c.seconds) * time.Second)
	err = func() error {
		for i := 0; i < setupReps || time.Now().Before(deadline); i++ {
			corpusDir := filepath.Join(c.work, fmt.Sprintf("corpus-%d", i))
			t, err := timeIt(func() error {
				_, err := writeCorpus(c.corpusSeed, buildFiles, corpusDir)
				return err
			})
			if err != nil {
				return fmt.Errorf("write corpus: %w", err)
			}
			setup = append(setup, t.Seconds())

			// The heap window covers the build alone, not the probe.
			hp := startHeapPeak()
			b, err := buildMerged(corpusDir, filepath.Join(c.work, fmt.Sprintf("index-%d", i)), nil)
			heap = append(heap, hp.stopMB())
			r.op("build", 1, boolInt(err != nil))
			if err != nil {
				return err
			}
			rr, err := probeIndex(b.idx, log)
			os.RemoveAll(corpusDir)
			prev := last
			last = b
			if prev != nil {
				prev.idx.Close()
				os.RemoveAll(prev.dir)
				if b.merge.Bytes != prev.merge.Bytes {
					return fmt.Errorf("%w: build %d merged %d bytes, the build before %d",
						errMismatch, i, b.merge.Bytes, prev.merge.Bytes)
				}
			}
			if err != nil {
				return err
			}
			r.op("search", rr.ok+rr.fail, rr.fail)
			if rr.fail > 0 {
				return fmt.Errorf("%d of %d probe queries failed; first: %v", rr.fail, rr.ok+rr.fail, rr.firstErr)
			}
			mbps = append(mbps, float64(plainBytes)/1e6/b.wall.Seconds())
			docsPerS = append(docsPerS, float64(len(docs))/b.wall.Seconds())
			buildMs = append(buildMs, ms(b.wall))
			latMs = append(latMs, rr.latMs...)
			qps = append(qps, float64(rr.ok)/rr.wall.Seconds())
			if i == 0 {
				kept = rr.kept
			}
		}
		return nil
	}()
	if last != nil {
		defer last.idx.Close()
	}
	if err != nil {
		return r, err
	}

	r.set("setup_s", median(setup))
	r.set("build_mbps", median(mbps))
	r.set("ingest_docs_per_s", median(docsPerS))
	r.set("index_bytes_per_posting", float64(last.merge.Bytes)/float64(refPostings))
	r.set("peak_heap_mb", median(heap))
	setBatchIngestMetrics(r, buildMs)
	setQueryMetrics(r, qps, latMs)
	r.note("%d builds", len(mbps))

	// Oracles, outside the timed region.
	ref, _, err = staticReference(inputDir, c.querySeed)
	if err != nil {
		return r, err
	}
	if err := checkIndex(last.idx, ref.Lists); err != nil {
		return r, fmt.Errorf("%w: merged index vs reference: %v", errMismatch, err)
	}
	return r, checkAnswers(newOracle(ref.Lists, int(ref.Docs)), kept, true)
}

// probeIndex serves a freshly built index over loopback HTTP and sends
// it the first probeQueries queries of the log, closed-loop.
func probeIndex(idx *fastinvert.Index, log []Query) (replayResult, error) {
	srv := serve.New(idx, serve.Config{Workers: loadClients})
	defer srv.Close()
	lb, err := startLoopback(srv.Handler())
	if err != nil {
		return replayResult{}, err
	}
	defer lb.close()
	return lb.replay(log, replayOpts{clients: loadClients, limit: probeQueries, keep: keepAnswers}), nil
}

// setBatchIngestMetrics reports a batch workload's ingest operation,
// one whole build, by its latency: under forty builds the tail is the
// median build.
func setBatchIngestMetrics(r *run, buildMs []float64) {
	_, tail, _ := latencySummary(buildMs)
	r.set("ingest_p99_ms", tail)
}

// setQueryMetrics reports query_qps as the median of the per-round
// rates and the latency percentiles over the rounds' pooled samples.
func setQueryMetrics(r *run, qps, latMs []float64) {
	p50, tail, pct := latencySummary(latMs)
	r.set("query_qps", median(qps))
	r.set("query_p50_ms", p50)
	r.set("query_p99_ms", tail)
	r.note("query tail is p%.2f of %d requests", pct, len(latMs))
}

// checkAnswers runs the oracle over the answers kept from the load.
func checkAnswers(o *oracle, kept []recorded, exactRank bool) error {
	for _, k := range kept {
		if err := o.checkQuery(k.q, k.r, exactRank); err != nil {
			return fmt.Errorf("%w: %v", errMismatch, err)
		}
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
