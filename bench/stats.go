package main

import (
	"math"
	"sort"
)

// percentileBeyond is the ten-beyond guard: a percentile is only
// reported when at least this many samples lie beyond it.
const percentileBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of sorted, and how many samples lie strictly beyond its rank.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// tailPercentile is the highest of 99, 95, 90, 75 that keeps at least
// percentileBeyond samples beyond it, capped at want (the metric's
// nominal percentile). With too few samples for even p75 it falls back
// to the median and says so through the returned percentile.
func tailPercentile(sorted []float64, want float64) (v, p float64) {
	for _, p := range []float64{99, 95, 90, 75} {
		if p > want {
			continue
		}
		if v, beyond := percentile(sorted, p); beyond >= percentileBeyond {
			return v, p
		}
	}
	v, _ = percentile(sorted, 50)
	return v, 50
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank p50, or 0 of nothing.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := percentile(sortedCopy(xs), 50)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the three cut points of sorted as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is how the benchmark driver takes a metric's spread.
func quartiles(sorted []float64) [3]float64 {
	n := len(sorted)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		q[i-1] = sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	return q
}
