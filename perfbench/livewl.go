package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"fastinvert/internal/reference"
	"fastinvert/internal/segment"
	"fastinvert/internal/serve"
)

// Live-index shape: positional, auto seal and background compaction.
// Compaction runs on one worker (liveOptions), so it leaves a core to
// the clients instead of stalling ingests and queries alike.
const (
	liveSealEvery = 256
	liveCompactAt = 4
	// liveDocsPerSecond sizes the ingest stream: a run of S seconds
	// ingests S*liveDocsPerSecond documents in all, split over the
	// rounds, whatever the program's speed, so every run does the same
	// work. Each round preloads as many documents as it ingests.
	liveDocsPerSecond = 375
	liveOracleQueries = 400
	// liveCacheBytes bounds the live server's postings cache.
	liveCacheBytes = 16 << 20
)

func liveOptions() segment.Options {
	return segment.Options{Positional: true, SealEvery: liveSealEvery, CompactAt: liveCompactAt, CompactWorkers: 1}
}

// liveInputs are the live workload's generated inputs.
type liveInputs struct {
	preload, ingest [][]byte
	preloadBytes    int64
	plan            ingestPlan
	log             []Query
	preloadPostings int64
}

// makeLiveInputs writes the corpus (a preload and an ingest half of
// S × liveDocsPerSecond / setupReps documents each) and derives the
// live inputs from it.
func makeLiveInputs(c config) (corpusDir string, in *liveInputs, err error) {
	n := c.seconds * liveDocsPerSecond / setupReps
	corpusDir = filepath.Join(c.work, "corpus")
	if _, err := writeCorpus(c.corpusSeed, (2*n+63)/64, corpusDir); err != nil {
		return "", nil, fmt.Errorf("write corpus: %w", err)
	}
	docs, _, err := readDocs(corpusDir)
	if err != nil {
		return "", nil, err
	}
	in, err = liveInputsFrom(c, docs, n)
	return corpusDir, in, err
}

// liveInputsFrom splits docs[:2n] into a preload half and an ingest
// half and draws the query log, phrases included, over the positional
// reference of both halves.
func liveInputsFrom(c config, docs [][]byte, n int) (*liveInputs, error) {
	if len(docs) < 2*n {
		return nil, fmt.Errorf("corpus has %d documents, need %d", len(docs), 2*n)
	}
	in := &liveInputs{preload: docs[:n], ingest: docs[n : 2*n]}
	for _, d := range in.preload {
		in.preloadBytes += int64(len(d))
	}
	ref, err := reference.BuildPositionalFromSource(newDocSource(docs[:2*n], 64))
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	for _, l := range ref.Lists {
		for _, d := range l.DocIDs {
			if int(d) < n {
				in.preloadPostings++
			}
		}
	}
	phrases := phrasePairs(c.querySeed, ref.Lists, 2*n, 512)
	in.log = queryLog(c.querySeed, dfRanking(ref.Lists), phrases, liveMix, logLen)
	in.plan = planIngest(c.ingestSeed, n, uint32(n))
	return in, nil
}

// openPreloaded opens a fresh live index in dir and adds and seals the
// preload half: the live workload's set-up.
func openPreloaded(dir string, preload [][]byte) (*segment.Manager, error) {
	mgr, err := segment.Open(dir, liveOptions())
	if err != nil {
		return nil, err
	}
	for _, d := range preload {
		if _, err := mgr.AddDocument(d); err != nil {
			mgr.Close()
			return nil, err
		}
	}
	if err := mgr.Seal(); err != nil {
		mgr.Close()
		return nil, err
	}
	return mgr, nil
}

// liveOracle rebuilds the reference over every document at the ID the
// live index gave it, with the acknowledged deletions as tombstones.
func liveOracle(in *liveInputs, dead map[uint32]bool) (*oracle, error) {
	docs := append([][]byte(nil), in.preload...)
	for _, i := range in.plan.Order {
		docs = append(docs, in.ingest[i])
	}
	ref, err := reference.BuildPositionalFromSource(newDocSource(docs, 64))
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	o := newOracle(ref.Lists, len(docs))
	o.dead = dead
	return o, nil
}

// runLive is serve-live-mixed, in setupReps rounds on fresh live
// indexes: each round's set-up preloads and seals the first half of the
// corpus; then one client ingests the second half over /ingest
// (deleting an earlier document every tenth ingest) while another
// replays the query log, phrases included. Rates, sizes and heap are
// medians over rounds, so background work that lands badly in one round
// moves one sample, not the run.
func runLive(c config) (*run, error) {
	r := newRun()
	_, in, err := makeLiveInputs(c)
	if err != nil {
		return r, err
	}
	var setup, mbps, bytesPerPosting, heap, ingestRate, qps, ingestMs, queryMs []float64
	for round := 0; round < setupReps; round++ {
		var mgr *segment.Manager
		t, err := timeIt(func() error {
			var err error
			mgr, err = openPreloaded(filepath.Join(c.work, fmt.Sprintf("live-%d", round)), in.preload)
			return err
		})
		if err != nil {
			return r, fmt.Errorf("preload: %w", err)
		}
		setup = append(setup, t.Seconds())
		mbps = append(mbps, float64(in.preloadBytes)/1e6/t.Seconds())
		bytesPerPosting = append(bytesPerPosting, float64(mgr.Stats().SegmentBytes)/float64(in.preloadPostings))

		last := round == setupReps-1
		ing, qr, peak, err := liveRound(r, mgr, in, func(ing ingestResult, lb *loopback) error {
			if !last {
				return nil
			}
			// Oracle on the final state, through the same server. Every
			// round replays the same streams, so the last one stands for
			// all; building the oracle only then keeps it out of the
			// rounds' heap.
			o, err := liveOracle(in, ing.dead)
			if err != nil {
				return err
			}
			return checkLive(mgr, o, in, ing.dead, lb.search)
		})
		if cerr := mgr.Close(); err == nil {
			err = cerr
		}
		os.RemoveAll(filepath.Join(c.work, fmt.Sprintf("live-%d", round)))
		if err != nil {
			return r, err
		}
		heap = append(heap, peak)
		ingestRate = append(ingestRate, float64(ing.ingests)/ing.wall.Seconds())
		qps = append(qps, float64(qr.ok)/ing.wall.Seconds())
		ingestMs = append(ingestMs, ing.latMs...)
		queryMs = append(queryMs, qr.latMs...)
	}
	// Latency percentiles pool the rounds' samples: the tail then rests
	// on setupReps times as many samples beyond it.
	_, ingestTail, pct := latencySummary(ingestMs)
	r.note("ingest tail is p%.2f of %d ingests", pct, len(ingestMs))
	r.set("setup_s", median(setup))
	r.set("build_mbps", median(mbps))
	r.set("index_bytes_per_posting", median(bytesPerPosting))
	r.set("peak_heap_mb", median(heap))
	r.set("ingest_docs_per_s", median(ingestRate))
	r.set("ingest_p99_ms", ingestTail)
	setQueryMetrics(r, qps, queryMs)
	return r, nil
}

// liveRound serves mgr over loopback, runs the ingest stream beside the
// query client, then hands the final state to check while the server
// is still up. The rates are over the ingest stream's wall time, which
// the queries ran beside.
func liveRound(r *run, mgr *segment.Manager, in *liveInputs, check func(ingestResult, *loopback) error) (ingestResult, replayResult, float64, error) {
	srv := serve.NewLive(mgr, serve.Config{CacheBytes: liveCacheBytes, Workers: loadClients})
	defer srv.Close()
	lb, err := startLoopback(srv.Handler())
	if err != nil {
		return ingestResult{}, replayResult{}, 0, err
	}
	defer lb.close()

	hp := startHeapPeak()
	stop := make(chan struct{})
	queries := make(chan replayResult, 1)
	go func() { queries <- lb.replay(in.log, replayOpts{clients: 1, stop: stop}) }()
	ing := ingestStream(lb, in)
	close(stop)
	qr := <-queries
	peak := hp.stopMB()

	r.op("ingest", ing.ingests, ing.ingestFail)
	r.op("delete", ing.deletes, ing.deleteFail)
	r.op("search", qr.ok+qr.fail, qr.fail)
	st := mgr.Stats()
	r.note("live: %d seals, %d compactions, %d segments, serve cache hit ratio %.3f",
		st.Seals, st.Compactions, st.Segments, srv.CacheStats().HitRate())
	switch {
	case ing.err != nil:
		err = ing.err
	case qr.fail > 0:
		err = fmt.Errorf("%d of %d queries failed; first: %v", qr.fail, qr.ok+qr.fail, qr.firstErr)
	case mgr.LastCompactionError() != nil:
		err = fmt.Errorf("background compaction: %w", mgr.LastCompactionError())
	default:
		err = check(ing, lb)
	}
	return ing, qr, peak, err
}

// checkLive checks the live index's final state against the oracle o:
// the live document count and the first liveOracleQueries queries of
// the log, answered by ask.
func checkLive(mgr *segment.Manager, o *oracle, in *liveInputs, dead map[uint32]bool, ask func(Query) (searchResult, error)) error {
	if got, want := mgr.LiveDocs(), int64(len(in.preload)+len(in.ingest)-len(dead)); got != want {
		return fmt.Errorf("%w: %d live documents, want %d", errMismatch, got, want)
	}
	for _, q := range in.log[:liveOracleQueries] {
		res, err := ask(q)
		if err != nil {
			return err
		}
		if err := o.checkQuery(q, res, false); err != nil {
			return fmt.Errorf("%w: %v", errMismatch, err)
		}
	}
	return nil
}

// ingestResult is what the ingest client saw.
type ingestResult struct {
	ingests, ingestFail int
	deletes, deleteFail int
	latMs               []float64 // per /ingest
	dead                map[uint32]bool
	wall                time.Duration
	err                 error
}

// ingestStream POSTs the ingest half in plan order, closed-loop, with
// the planned /delete after every tenth ingest. Each ingest must be
// acknowledged with the next docID.
func ingestStream(lb *loopback, in *liveInputs) ingestResult {
	res := ingestResult{dead: map[uint32]bool{}}
	next := uint32(len(in.preload))
	t0 := time.Now()
	for i, di := range in.plan.Order {
		t := time.Now()
		body, err := lb.post("/ingest", in.ingest[di])
		res.latMs = append(res.latMs, ms(time.Since(t)))
		res.ingests++
		if err == nil {
			var ack struct{ Doc uint32 }
			if err = json.Unmarshal(body, &ack); err == nil && ack.Doc != next {
				err = fmt.Errorf("%w: ingest %d acknowledged as doc %d, want %d", errMismatch, i, ack.Doc, next)
			}
		}
		next++
		if err != nil {
			res.ingestFail++
			if res.err == nil {
				res.err = err
			}
			continue
		}
		if victim, ok := in.plan.Deletes[i]; ok {
			res.deletes++
			if _, err := lb.post("/delete?doc="+strconv.FormatUint(uint64(victim), 10), nil); err != nil {
				res.deleteFail++
				if res.err == nil {
					res.err = err
				}
				continue
			}
			res.dead[victim] = true
		}
	}
	res.wall = time.Since(t0)
	return res
}
