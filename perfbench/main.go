// Command perfbench is fastinvert's end-to-end benchmark: it builds the
// program's inputs from a seed, drives one named workload through the
// program's public entry points (the batch builder, the static and the
// live HTTP servers), checks every output against an oracle it computes
// on its own, and prints the workload's metrics as one JSON line.
//
//	perfbench --workload build-clueweb --seed 1 --seconds 25 --trace 0
//	perfbench --workload serve-live-mixed --steady 5
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the traced sweep instead and prints the per-layer metrics. See
// README.md for the workloads, the metrics and reference figures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// metricV is one reported value.
type metricV struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]metricV `json:"metrics"`
}

// opCount is the accounting of one operation kind.
type opCount struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
}

// run collects one workload run's metrics and operation counts.
type run struct {
	metrics map[string]float64
	ops     map[string]*opCount
	notes   []string // printed to stderr: sample counts, percentiles
}

func newRun() *run {
	return &run{metrics: map[string]float64{}, ops: map[string]*opCount{}}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// op records n attempts of kind, failed of which failed.
func (r *run) op(kind string, n, failed int) {
	c := r.ops[kind]
	if c == nil {
		c = &opCount{}
		r.ops[kind] = c
	}
	c.Attempted += int64(n)
	c.Failed += int64(failed)
}

// config is one invocation's settings.
type config struct {
	workload   string
	seconds    int
	trace      bool
	corpusSeed int64
	querySeed  int64
	ingestSeed int64
	work       string // scratch directory inside the checkout
}

type workloadFunc func(c config) (*run, error)

var workloads = map[string]workloadFunc{
	"build-clueweb":     runBuild,
	"serve-static-zipf": runStatic,
	"serve-live-mixed":  runLive,
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "base seed; the corpus, query-log and ingest-order seeds derive from it")
	seconds := fs.Int("seconds", 25, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced sweep and prints per-layer metrics")
	corpusSeed := fs.Int64("corpus-seed", -1, "corpus seed (default derived from -seed)")
	querySeed := fs.Int64("query-seed", -1, "query-log seed (default derived from -seed)")
	ingestSeed := fs.Int64("ingest-seed", -1, "ingest-order and delete-victim seed (default derived from -seed)")
	steady := fs.Int("steady", 0, "run the workload this many times (seeds -seed, -seed+1, ...) in child processes and print each end-to-end metric's median and quartiles beside its bound")
	benchFile := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds (steadiness mode)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wf, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	if *steady > 0 {
		if err := runSteady(*benchFile, *workload, *seed, *seconds, *steady, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	c := config{
		workload:   *workload,
		seconds:    *seconds,
		trace:      *trace == 1,
		corpusSeed: pick(*corpusSeed, 0x5EED0000+*seed),
		querySeed:  pick(*querySeed, 0x0AE70000+*seed),
		ingestSeed: pick(*ingestSeed, 0x1E570000+*seed),
	}
	work, err := workDir()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(work)
	c.work = work

	if c.trace {
		wf = traceSweep
	}
	r, err := wf(c)
	if r == nil {
		r = newRun()
	}
	for _, n := range r.notes {
		fmt.Fprintln(stderr, "perfbench:", n)
	}
	if err != nil && !errors.Is(err, errMismatch) {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	want := endToEnd
	if c.trace {
		want = perLayer
	}
	res := result{Correct: err == nil, Metrics: map[string]metricV{}}
	for _, m := range want {
		v, ok := r.metrics[m.name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", m.name)
			return 2
		}
		res.Metrics[m.name] = metricV{v, m.unit}
	}
	for _, o := range r.ops {
		res.Attempted += o.Attempted
		res.Failed += o.Failed
	}
	opsLine, _ := json.Marshal(r.ops)
	fmt.Fprintf(stdout, "ops %s\n", opsLine)
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func pick(flagV, derived int64) int64 {
	if flagV >= 0 {
		return flagV
	}
	return derived
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
