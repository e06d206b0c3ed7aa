package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// with fewer, the "percentile" is a handful of outliers and does not
// repeat run to run (PR 11's p99 over a few dozen jobs was the max).
const minBeyond = 10

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of
// sorted. It refuses — returns an error instead of a number — when fewer
// than beyond samples lie strictly above the chosen rank.
func percentile(sorted []float64, p float64, beyond int) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	if p <= 0 || p > 100 {
		return 0, fmt.Errorf("percentile %g outside (0, 100]", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < beyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", p, n, n-rank, beyond)
	}
	return sorted[rank-1], nil
}

// sortedMS converts durations to ascending milliseconds.
func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// median of an unsorted sample; 0 for an empty one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
