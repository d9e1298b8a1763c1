package main

import (
	"sort"
	"time"
)

// median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailRank is the 1-based nearest rank of the tail percentile in a
// sorted sample of n: the highest rank, at most the 99th percentile's,
// that leaves at least ten samples beyond it. Below forty samples there
// is no tail, and it is the median's rank.
func tailRank(n int) int {
	if n < 40 {
		return (n + 1) / 2
	}
	return min(n-10, (99*n+99)/100)
}

// latencySummary reports the median and the tail of a latency sample
// (both the median when it is under forty samples), plus which
// percentile the tail is.
func latencySummary(xs []float64) (p50, tail, tailPct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	p50 = median(xs)
	if n < 40 {
		return p50, p50, 50
	}
	s := sortedCopy(xs)
	rank := tailRank(n)
	tailPct = 99 // the nearest rank ceil(0.99 n)
	if rank < (99*n+99)/100 {
		tailPct = 100 * float64(rank) / float64(n)
	}
	return p50, s[rank-1], tailPct
}

// quartiles returns the three cut points dividing xs into four groups,
// computed like Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method; xs needs at least two values.
func quartiles(xs []float64) [3]float64 {
	s := sortedCopy(xs)
	n := len(s)
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
