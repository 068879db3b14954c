package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles tail_ms may report, highest first.
var tailLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// rank is the 1-based nearest-rank position of percentile p among n sorted
// samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return max(1, min(r, n))
}

// tailPercentile picks the highest ladder percentile, at most want, that
// leaves at least minBeyond of n samples beyond it. ok is false when not even
// the median does; callers then report the maximum.
func tailPercentile(want float64, n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if p <= want && n-rank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 100, false
}

// percentile is the nearest-rank p-th percentile of sorted (0 when empty).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// quartiles returns the three cut points of sorted data exactly as Python's
// statistics.quantiles(data, n=4) computes them (its default exclusive
// method), so the steadiness mode reads like the acceptance check.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	n := len(sorted)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return sorted[0], sorted[0], sorted[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median of xs (0 when empty); xs is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	_, m, _ := quartiles(s)
	return m
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
