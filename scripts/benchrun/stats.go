package main

import (
	"math"
	"sort"
)

// tailLevels are the percentiles a tail latency may be reported at,
// highest first. A tail is only meaningful with at least minBeyond
// samples above it, so small samples fall back to a lower level.
var tailLevels = []float64{99, 95, 90, 75, 50}

// minBeyond is the sample count a reported percentile needs above it.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

// beyond counts the samples strictly above the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// tailPercentile returns the highest level in tailLevels, capped at
// maxLevel, that has at least minBeyond of n samples beyond it; ok is
// false when even the median has too few.
func tailPercentile(n int, maxLevel float64) (p float64, ok bool) {
	for _, lvl := range tailLevels {
		if lvl <= maxLevel && beyond(n, lvl) >= minBeyond {
			return lvl, true
		}
	}
	return 0, false
}

// summary is a latency sample reduced to the numbers the benchmark
// reports: the median and the tail, each with the count behind it.
type summary struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	TailP float64 `json:"tail_p"`
	Tail  float64 `json:"tail"`
}

// summarize sorts a copy of xs and reads its median and its tail at the
// highest level up to maxLevel that the sample count supports.
func summarize(xs []float64, maxLevel float64) summary {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s := summary{N: len(xs), P50: percentile(sorted, 50)}
	if p, ok := tailPercentile(len(xs), maxLevel); ok {
		s.TailP, s.Tail = p, percentile(sorted, p)
	}
	return s
}

// quartiles returns the first quartile, median and third quartile of xs
// with the same interpolation as Python's statistics.quantiles(xs, n=4)
// (the "exclusive" method), so spreads computed here match a reader's
// check of the same numbers.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// median is the middle of xs (the mean of the middle pair when even).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
