package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"fastinvert"
	"fastinvert/internal/corpus"
	"fastinvert/internal/cpuindexer"
	"fastinvert/internal/gpu"
	"fastinvert/internal/gpuindexer"
	"fastinvert/internal/parser"
	"fastinvert/internal/search"
	"fastinvert/internal/segment"
	"fastinvert/internal/serve"
	"fastinvert/internal/telemetry"
)

// The traced run (--trace 1) measures every layer on the workload's own
// inputs, from the benchmark's side of the layer boundaries: timed calls
// into each layer's public functions, the layers' public counters, and
// an observer on core.Config.Observer for the in-pipeline build stages.
// Layers the workload itself does not load are probed on its inputs too
// (the build stages on its corpus, the live index on a slice of its
// documents), so every traced run reports every per-layer metric.

const (
	traceQueries  = 2000 // serial queries of the static probe
	liveProbeDocs = 1000 // preload and ingest size of the live probe on batch workloads
	liveQueryEach = 2    // live probe: one query per this many ingests
)

// stageObserver sums in-pipeline busy seconds by stage, splitting the
// index stage into CPU and simulated-GPU indexer workers.
type stageObserver struct {
	cpuIndexers int
	mu          sync.Mutex
	busy        map[string]float64
}

func newStageObserver(cpuIndexers int) *stageObserver {
	return &stageObserver{cpuIndexers: cpuIndexers, busy: map[string]float64{}}
}

func (o *stageObserver) BuildStart(int, map[string]any) {}
func (o *stageObserver) Sample(string, int, float64)    {}
func (o *stageObserver) Total(string, map[string]string, float64) {
}
func (o *stageObserver) BuildEnd(map[string]any) {}

func (o *stageObserver) StageSpan(stage string, worker, _ int, _ time.Time, dur time.Duration, _, _, _ int64) {
	if stage == telemetry.StageIndex {
		stage = "index/gpu"
		if worker < o.cpuIndexers {
			stage = "index/cpu"
		}
	}
	o.mu.Lock()
	o.busy[stage] += dur.Seconds()
	o.mu.Unlock()
}

// traceSweep is the traced run of any workload.
func traceSweep(c config) (*run, error) {
	r := newRun()
	var corpusDir string
	var live *liveInputs
	var err error
	switch c.workload {
	case "serve-live-mixed":
		corpusDir, live, err = makeLiveInputs(c)
	default:
		files := buildFiles
		if c.workload == "serve-static-zipf" {
			files = staticFiles
		}
		corpusDir = filepath.Join(c.work, "corpus")
		if _, err = writeCorpus(c.corpusSeed, files, corpusDir); err != nil {
			break
		}
		var docs [][]byte
		if docs, _, err = readDocs(corpusDir); err == nil {
			live, err = liveInputsFrom(c, docs, liveProbeDocs)
		}
	}
	if err != nil {
		return r, err
	}

	b, err := traceBuild(r, corpusDir, filepath.Join(c.work, "index"))
	if err != nil {
		return r, err
	}
	defer b.idx.Close()
	ref, log, err := staticReference(corpusDir, c.querySeed)
	if err != nil {
		return r, err
	}
	// A reader of its own, so the check leaves the probed reader's
	// cache cold.
	check, err := fastinvert.Open(b.dir)
	if err != nil {
		return r, err
	}
	err = checkIndex(check, ref.Lists)
	check.Close()
	if err != nil {
		return r, fmt.Errorf("%w: merged index vs reference: %v", errMismatch, err)
	}
	if err := traceStandalone(r, corpusDir); err != nil {
		return r, err
	}
	static, err := traceStatic(r, b, log[:traceQueries], newOracle(ref.Lists, int(ref.Docs)))
	if err != nil {
		return r, err
	}
	ref = nil
	liveM, err := traceLive(r, filepath.Join(c.work, "live"), live, c.workload == "serve-live-mixed")
	if err != nil {
		return r, err
	}
	// On serve-live-mixed the live probe's query-path metrics replace
	// the static probe's.
	for _, m := range []map[string]float64{static, liveM} {
		for k, v := range m {
			r.set(k, v)
		}
	}
	return r, nil
}

// traceBuild is one observed build of the corpus, merged and reopened.
func traceBuild(r *run, corpusDir, out string) (*built, error) {
	obs := newStageObserver(fastinvert.DefaultOptions().CPUIndexers)
	m0 := readMetrics(metricHeapAllocs, metricGCCPU)
	b, err := buildMerged(corpusDir, out, obs)
	r.op("build", 1, boolInt(err != nil))
	if err != nil {
		return nil, err
	}
	m1 := readMetrics(metricHeapAllocs, metricGCCPU)
	r.set("core.wall_s", b.buildWall.Seconds())
	r.set("core.cpu_s", b.buildCPU)
	r.set("sampling.busy_s", obs.busy[telemetry.StageSampling])
	r.set("corpus.read_busy_s", obs.busy[telemetry.StageRead])
	r.set("parser.busy_s", obs.busy[telemetry.StageParse])
	r.set("cpuindexer.busy_s", obs.busy["index/cpu"])
	r.set("gpuindexer.busy_s", obs.busy["index/gpu"])
	r.set("store.flush_busy_s", obs.busy[telemetry.StageFlush])
	r.set("store.dict_busy_s", obs.busy[telemetry.StageDictCombine]+obs.busy[telemetry.StageDictWrite])
	r.set("store.merge_s", b.mergeWall.Seconds())
	r.set("store.open_s", b.openWall.Seconds())
	r.set("core.cpu_tokens", float64(b.rep.CPUTokens))
	r.set("core.gpu_tokens", float64(b.rep.GPUTokens))
	r.set("runtime.alloc_mb", (m1[0]-m0[0])/1e6)
	r.set("runtime.gc_cpu_s", m1[1]-m0[1])
	r.set("store.postings_bytes", float64(b.rep.PostingsBytes))
	r.set("store.dictionary_bytes", float64(b.rep.DictionaryBytes))
	r.set("store.merged_bytes", float64(b.merge.Bytes))
	r.set("store.blocked_lists", float64(b.merge.Blocked))
	r.note("traced build: %.3f s build, %.3f s merge, %.3f s open (%.3f s in all)",
		b.buildWall.Seconds(), b.mergeWall.Seconds(), b.openWall.Seconds(), b.wall.Seconds())
	return b, nil
}

// traceStandalone times single-threaded calls into the gunzip, parser
// and both indexer layers over the corpus, file by file, the way one
// pipeline worker sees them.
func traceStandalone(r *run, corpusDir string) error {
	src, err := fastinvert.OpenCorpusDir(corpusDir)
	if err != nil {
		return err
	}
	dev, err := gpu.NewDevice(fastinvert.DefaultOptions().GPU)
	if err != nil {
		return err
	}
	cpuIx := cpuindexer.New()
	gpuIx := gpuindexer.New(dev, gpuindexer.Config{ThreadBlocks: fastinvert.DefaultOptions().GPUThreadBlocks})
	p := parser.New(nil)
	var plainBytes, tokens int64
	var gunzip, parse, cpuT, gpuT time.Duration
	var docBase uint32
	for i := 0; i < src.NumFiles(); i++ {
		stored, gz, err := src.ReadFile(i)
		if err != nil {
			return err
		}
		t0 := time.Now()
		plain, err := corpus.Decompress(stored, gz)
		if err != nil {
			return err
		}
		t1 := time.Now()
		docs := corpus.SplitDocs(plain)
		blk := parser.NewBlock(0)
		for d, doc := range docs {
			p.ParseDoc(uint32(d), doc, blk)
		}
		t2 := time.Now()
		groups := make([]*parser.Group, 0, len(blk.Groups))
		for _, g := range blk.Groups {
			groups = append(groups, g)
		}
		t3 := time.Now()
		if _, err := cpuIx.IndexRun(groups, docBase); err != nil {
			return fmt.Errorf("cpuindexer: %w", err)
		}
		t4 := time.Now()
		if _, err := gpuIx.IndexRun(groups, docBase); err != nil {
			return fmt.Errorf("gpuindexer: %w", err)
		}
		t5 := time.Now()
		cpuIx.ResetRunPostings()
		gpuIx.ResetRunPostings()
		gunzip += t1.Sub(t0)
		parse += t2.Sub(t1)
		cpuT += t4.Sub(t3)
		gpuT += t5.Sub(t4)
		plainBytes += int64(len(plain))
		tokens += int64(blk.Tokens)
		docBase += uint32(len(docs))
	}
	dev.TrimTransients()
	r.set("corpus.gunzip_mbps", float64(plainBytes)/1e6/gunzip.Seconds())
	r.set("parser.mbps", float64(plainBytes)/1e6/parse.Seconds())
	r.set("cpuindexer.ns_per_token", float64(cpuT.Nanoseconds())/float64(tokens))
	r.set("gpuindexer.ns_per_token", float64(gpuT.Nanoseconds())/float64(tokens))
	return nil
}

// traceStatic probes the read path of a merged index with the query
// log: a serial replay through the static server (cache budget as in
// serve-static-zipf) paired with direct Searcher calls over a separately
// opened reader, then per-term store calls. The direct answers are
// checked against the oracle.
func traceStatic(r *run, b *built, log []Query, o *oracle) (map[string]float64, error) {
	m := map[string]float64{}
	dir := b.dir
	srv := serve.New(b.idx, serve.Config{CacheBytes: cacheBudget(b), Workers: loadClients})
	defer srv.Close()
	lb, err := startLoopback(srv.Handler())
	if err != nil {
		return nil, err
	}
	defer lb.close()
	direct, err := fastinvert.Open(dir)
	if err != nil {
		return nil, err
	}
	defer direct.Close()
	s := fastinvert.NewSearcher(direct)

	st0 := b.idx.Stats()
	var reqUs, overUs, topkUs, boolUs []float64
	var topk int
	for _, q := range log {
		t := time.Now()
		_, err := lb.search(q)
		req := time.Since(t)
		r.op("search", 1, boolInt(err != nil))
		if err != nil {
			return nil, err
		}
		t = time.Now()
		res, err := searchDirect(s, q)
		d := time.Since(t)
		r.op("search", 1, boolInt(err != nil))
		if err != nil {
			return nil, err
		}
		if err := o.checkQuery(q, res, true); err != nil {
			return nil, fmt.Errorf("%w: direct search: %v", errMismatch, err)
		}
		reqUs = append(reqUs, us(req))
		overUs = append(overUs, us(req-d))
		if q.Mode == "topk" {
			topk++
			topkUs = append(topkUs, us(d))
		} else {
			boolUs = append(boolUs, us(d))
		}
	}
	st1 := b.idx.Stats()
	cs := srv.CacheStats()
	m["serve.request_us"] = median(reqUs)
	m["serve.overhead_us"] = median(overUs)
	m["search.topk_us"] = median(topkUs)
	m["search.bool_us"] = median(boolUs)
	m["serve.cache_hit_ratio"] = cs.HitRate()
	m["serve.cache_evicted_mb"] = float64(cs.EvictedBytes) / 1e6
	m["store.cache_hit_ratio"] = ratio(st1.CacheHits-st0.CacheHits, st1.CacheHits-st0.CacheHits+st1.CacheMisses-st0.CacheMisses)
	m["store.list_kb_read_per_query"] = float64(st1.ListBytesRead-st0.ListBytesRead) / 1e3 / float64(len(log))
	rs := s.RankStats()
	m["search.block_query_ratio"] = ratio(rs.BlockQueries, rs.BlockQueries+rs.FallbackQueries)
	m["search.blocks_decoded_per_query"] = float64(rs.BlocksDecoded) / float64(topk)
	m["search.blocks_skipped_per_query"] = float64(rs.BlocksSkipped) / float64(topk)

	// A second direct pass, warm, for allocations per query.
	a0 := readMetrics(metricHeapAllocs)[0]
	for _, q := range log {
		if _, err := searchDirect(s, q); err != nil {
			return nil, err
		}
	}
	m["runtime.alloc_kb_per_query"] = (readMetrics(metricHeapAllocs)[0] - a0) / 1e3 / float64(len(log))

	// Per-term store calls: dictionary lookup on the cached reader;
	// whole-list and block fetches on a reader whose cache is 1 byte,
	// so each is dictionary + pread + decode.
	cold, err := fastinvert.OpenWith(dir, fastinvert.ReaderOptions{CacheBytes: 1})
	if err != nil {
		return nil, err
	}
	defer cold.Close()
	var lookupUs, postUs, blockUs []float64
	ctx := context.Background()
	for _, term := range distinctTerms(log) {
		t := time.Now()
		_, err := direct.LookupTerm(term)
		lookupUs = append(lookupUs, us(time.Since(t)))
		if err != nil {
			return nil, fmt.Errorf("lookup %q: %w", term, err)
		}
		t = time.Now()
		_, err = cold.Postings(term)
		postUs = append(postUs, us(time.Since(t)))
		if err != nil {
			return nil, err
		}
		t = time.Now()
		_, err = cold.BlockPostingsCtx(ctx, term)
		blockUs = append(blockUs, us(time.Since(t)))
		if err != nil {
			return nil, err
		}
	}
	m["store.lookup_us"] = median(lookupUs)
	m["store.postings_us"] = median(postUs)
	m["store.block_postings_us"] = median(blockUs)
	return m, nil
}

// searchDirect answers q with a Searcher, shaped like a /search answer.
func searchDirect(s *search.Searcher, q Query) (searchResult, error) {
	var res searchResult
	var err error
	switch q.Mode {
	case "and":
		res.Docs, err = s.And(q.Words...)
	case "or":
		res.Docs, err = s.Or(q.Words...)
	case "phrase":
		res.Docs, err = s.Phrase(q.Words...)
	case "topk":
		var ranked []search.ScoredDoc
		ranked, err = s.TopK(q.K, q.Words...)
		for _, d := range ranked {
			res.Ranked = append(res.Ranked, Scored{d.Doc, d.Score})
		}
	}
	return res, err
}

func distinctTerms(log []Query) []string {
	seen := map[string]bool{}
	var out []string
	for _, q := range log {
		for _, w := range q.Words {
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
	}
	return out
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// traceLive replays the live workload serially on a manager without
// auto options: preload and seal, then the ingest plan with Seal and
// Compact called explicitly at the auto options' cadence, one query
// every liveQueryEach ingests sent both over HTTP (serve.NewLive) and
// directly to a Searcher on the manager. The final state is checked
// like serve-live-mixed's.
func traceLive(r *run, dir string, in *liveInputs, full bool) (map[string]float64, error) {
	m := map[string]float64{}
	mgr, err := segment.Open(dir, segment.Options{Positional: true})
	if err != nil {
		return nil, err
	}
	defer mgr.Close()
	var addUs, delUs, sealMs, compactMs, postUs []float64
	add := func(doc []byte) error {
		t := time.Now()
		_, err := mgr.AddDocument(doc)
		addUs = append(addUs, us(time.Since(t)))
		r.op("ingest", 1, boolInt(err != nil))
		return err
	}
	seal := func() error {
		t := time.Now()
		err := mgr.Seal()
		sealMs = append(sealMs, ms(time.Since(t)))
		return err
	}
	for _, d := range in.preload {
		if err := add(d); err != nil {
			return nil, err
		}
	}
	if err := seal(); err != nil {
		return nil, err
	}

	srv := serve.NewLive(mgr, serve.Config{CacheBytes: liveCacheBytes, Workers: loadClients})
	defer srv.Close()
	lb, err := startLoopback(srv.Handler())
	if err != nil {
		return nil, err
	}
	defer lb.close()
	s := search.NewWithSource(mgr)
	var reqUs, overUs, topkUs, boolUs, phraseUs []float64
	var topk int
	var allocs float64
	dead := map[uint32]bool{}
	for i, di := range in.plan.Order {
		if err := add(in.ingest[di]); err != nil {
			return nil, err
		}
		if victim, ok := in.plan.Deletes[i]; ok {
			t := time.Now()
			err := mgr.Delete(victim)
			delUs = append(delUs, us(time.Since(t)))
			r.op("delete", 1, boolInt(err != nil))
			if err != nil {
				return nil, err
			}
			dead[victim] = true
		}
		if st := mgr.Stats(); st.MemtableDocs >= liveSealEvery {
			if err := seal(); err != nil {
				return nil, err
			}
			if mgr.Stats().Segments >= liveCompactAt {
				t := time.Now()
				err := mgr.Compact(context.Background())
				compactMs = append(compactMs, ms(time.Since(t)))
				if err != nil {
					return nil, err
				}
			}
		}
		if i%liveQueryEach != 0 {
			continue
		}
		q := in.log[i/liveQueryEach]
		t := time.Now()
		_, err := lb.search(q)
		req := time.Since(t)
		r.op("search", 1, boolInt(err != nil))
		if err != nil {
			return nil, err
		}
		a0 := readMetrics(metricHeapAllocs)[0]
		t = time.Now()
		_, err = searchDirect(s, q)
		d := time.Since(t)
		allocs += readMetrics(metricHeapAllocs)[0] - a0
		r.op("search", 1, boolInt(err != nil))
		if err != nil {
			return nil, err
		}
		reqUs = append(reqUs, us(req))
		overUs = append(overUs, us(req-d))
		switch q.Mode {
		case "topk":
			topk++
			topkUs = append(topkUs, us(d))
		case "phrase":
			phraseUs = append(phraseUs, us(d))
		default:
			boolUs = append(boolUs, us(d))
		}
		t = time.Now()
		_, err = mgr.Postings(q.Words[0])
		postUs = append(postUs, us(time.Since(t)))
		if err != nil {
			return nil, err
		}
	}
	st := mgr.Stats()
	m["segment.add_us"] = median(addUs)
	m["segment.delete_us"] = median(delUs)
	m["segment.seal_ms"] = median(sealMs)
	m["segment.compact_ms"] = median(compactMs)
	m["segment.postings_us"] = median(postUs)
	m["segment.seals"] = float64(st.Seals)
	m["segment.compactions"] = float64(st.Compactions)
	m["segment.segments"] = float64(st.Segments)
	m["search.phrase_us"] = median(phraseUs)
	if full {
		rs := s.RankStats()
		cs := srv.CacheStats()
		m["serve.request_us"] = median(reqUs)
		m["serve.overhead_us"] = median(overUs)
		m["search.topk_us"] = median(topkUs)
		m["search.bool_us"] = median(boolUs)
		m["serve.cache_hit_ratio"] = cs.HitRate()
		m["serve.cache_evicted_mb"] = float64(cs.EvictedBytes) / 1e6
		m["search.block_query_ratio"] = ratio(rs.BlockQueries, rs.BlockQueries+rs.FallbackQueries)
		m["search.blocks_decoded_per_query"] = float64(rs.BlocksDecoded) / float64(topk)
		m["search.blocks_skipped_per_query"] = float64(rs.BlocksSkipped) / float64(topk)
		m["runtime.alloc_kb_per_query"] = allocs / 1e3 / float64(len(reqUs))
	}
	o, err := liveOracle(in, dead)
	if err != nil {
		return nil, err
	}
	if err := checkLive(mgr, o, in, dead, func(q Query) (searchResult, error) { return searchDirect(s, q) }); err != nil {
		return nil, err
	}
	return m, nil
}
