package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// benchDef is the part of BENCHMARK.json the steadiness mode reads.
type benchDef struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady runs one workload n times, each in a child process of this
// binary with seed, seed+1, ..., and prints per end-to-end metric the
// median, the quartiles and the spread — the distance between the
// quartiles as a share of the median — beside the metric's bound.
func runSteady(benchFile, workload string, seed int64, seconds, n int, stdout, stderr io.Writer) error {
	raw, err := os.ReadFile(benchFile)
	if err != nil {
		return err
	}
	var def benchDef
	if err := json.Unmarshal(raw, &def); err != nil {
		return fmt.Errorf("%s: %w", benchFile, err)
	}
	if n < 2 {
		return fmt.Errorf("steadiness needs at least 2 runs")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	var failShares []float64
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", "0")
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		res, err := lastResult(out.Bytes())
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: outputs incorrect", s)
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
		}
		failShares = append(failShares, float64(res.Failed)/float64(res.Attempted))
		fmt.Fprintf(stdout, "seed %d:", s)
		for _, m := range def.EndToEnd {
			fmt.Fprintf(stdout, " %s=%.4g", m.Name, res.Metrics[m.Name].Value)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "%s: %d runs of %d s, seeds %d..%d\n", workload, n, seconds, seed, seed+int64(n)-1)
	fmt.Fprintf(stdout, "%-24s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, m := range def.EndToEnd {
		vs := values[m.Name]
		if len(vs) != n {
			return fmt.Errorf("metric %s missing from some runs", m.Name)
		}
		q := quartiles(vs)
		spread := (q[2] - q[0]) / q[1]
		flag := ""
		if spread > m.Bound/3 {
			flag = "  above a third of the bound"
		}
		fmt.Fprintf(stdout, "%-24s %12.4f %12.4f %12.4f %8.4f %6.2f%s\n", m.Name, q[0], q[1], q[2], spread, m.Bound, flag)
	}
	fmt.Fprintf(stdout, "failed share per run: %v\n", failShares)
	return nil
}

// lastResult decodes the last line of a run's standard output.
func lastResult(out []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("last output line: %w", err)
	}
	return res, nil
}
