package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for n := 40; n <= 5000; n++ {
		_, tail, pct := latencySummary(seq(n))
		beyond := n - int(tail) // values are 1..n
		if beyond < 10 {
			t.Fatalf("n=%d: tail %v leaves %d samples beyond it", n, tail, beyond)
		}
		if pct > 99 {
			t.Fatalf("n=%d: tail percentile %v above 99", n, pct)
		}
		// The next rank up would leave fewer than ten samples beyond
		// it or pass the 99th percentile: the tail is the highest one.
		if next := int(tail) + 1; n-next >= 10 && 100*float64(next)/float64(n) <= 99 {
			t.Fatalf("n=%d: rank %d is also a valid tail, above %v", n, next, tail)
		}
	}
	if _, tail, pct := latencySummary(seq(1000)); tail != 990 || pct != 99 {
		t.Fatalf("n=1000: tail %v at p%v, want 990 at p99", tail, pct)
	}
}

func TestMedianAloneBelowForty(t *testing.T) {
	for n := 1; n < 40; n++ {
		p50, tail, pct := latencySummary(seq(n))
		want := (float64(n) + 1) / 2
		if p50 != want || tail != want || pct != 50 {
			t.Fatalf("n=%d: p50 %v tail %v p%v, want the median %v alone", n, p50, tail, pct, want)
		}
	}
	if p50, tail, _ := latencySummary(nil); p50 != 0 || tail != 0 {
		t.Fatal("empty sample must summarize to zero")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4], n=4) and
	// statistics.quantiles(range(1, 11), n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		got := quartiles(tc.xs)
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Fatalf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
}
