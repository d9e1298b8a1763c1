package main

// metric names one reported number. The lists below are the ones
// BENCHMARK.json declares (a test keeps the two in step).
type metric struct {
	name, unit, better string
}

// endToEnd is printed by every untraced run, whatever the workload:
// each metric is defined on all three workloads (README.md, "End-to-end
// metrics", gives the definition per workload).
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"build_mbps", "MB/s", "higher"},
	{"index_bytes_per_posting", "B", "lower"},
	{"peak_heap_mb", "MB", "lower"},
	{"query_qps", "queries/s", "higher"},
	{"query_p50_ms", "ms", "lower"},
	{"query_p99_ms", "ms", "lower"},
	{"ingest_docs_per_s", "docs/s", "higher"},
	{"ingest_p99_ms", "ms", "lower"},
}

// perLayer is printed by every traced run: the sweep measures every
// layer on the workload's own inputs (README.md, "Per-layer metrics").
var perLayer = []metric{
	// Batch build: wall, CPU and in-pipeline busy seconds per stage.
	{"core.wall_s", "s", "lower"},
	{"core.cpu_s", "s", "lower"},
	{"sampling.busy_s", "s", "lower"},
	{"corpus.read_busy_s", "s", "lower"},
	{"parser.busy_s", "s", "lower"},
	{"cpuindexer.busy_s", "s", "lower"},
	{"gpuindexer.busy_s", "s", "lower"},
	{"store.flush_busy_s", "s", "lower"},
	{"store.dict_busy_s", "s", "lower"},
	{"store.merge_s", "s", "lower"},
	{"store.open_s", "s", "lower"},
	// Single-threaded layer rates over the same corpus bytes.
	{"corpus.gunzip_mbps", "MB/s", "higher"},
	{"parser.mbps", "MB/s", "higher"},
	{"cpuindexer.ns_per_token", "ns", "lower"},
	{"gpuindexer.ns_per_token", "ns", "lower"},
	// Build counts.
	{"core.cpu_tokens", "count", "higher"},
	{"core.gpu_tokens", "count", "higher"},
	{"runtime.alloc_mb", "MB", "lower"},
	{"runtime.gc_cpu_s", "s", "lower"},
	{"store.postings_bytes", "B", "lower"},
	{"store.dictionary_bytes", "B", "lower"},
	{"store.merged_bytes", "B", "lower"},
	{"store.blocked_lists", "count", "higher"},
	// Query path: timed calls and counters.
	{"serve.request_us", "us", "lower"},
	{"serve.overhead_us", "us", "lower"},
	{"search.topk_us", "us", "lower"},
	{"search.bool_us", "us", "lower"},
	{"search.phrase_us", "us", "lower"},
	{"store.lookup_us", "us", "lower"},
	{"store.postings_us", "us", "lower"},
	{"store.block_postings_us", "us", "lower"},
	{"search.block_query_ratio", "ratio", "higher"},
	{"search.blocks_decoded_per_query", "count", "lower"},
	{"search.blocks_skipped_per_query", "count", "higher"},
	{"runtime.alloc_kb_per_query", "KB", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.cache_evicted_mb", "MB", "lower"},
	{"store.cache_hit_ratio", "ratio", "higher"},
	{"store.list_kb_read_per_query", "KB", "lower"},
	// Live index.
	{"segment.add_us", "us", "lower"},
	{"segment.delete_us", "us", "lower"},
	{"segment.seal_ms", "ms", "lower"},
	{"segment.compact_ms", "ms", "lower"},
	{"segment.postings_us", "us", "lower"},
	{"segment.seals", "count", "lower"},
	{"segment.compactions", "count", "lower"},
	{"segment.segments", "count", "lower"},
}
