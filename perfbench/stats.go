package main

import (
	"math"
	"sort"
)

// samples holds exact observations (nanoseconds unless stated). Quantiles
// are nearest-rank over the sorted samples themselves, never over histogram
// buckets, so a reported p99 is a value some request actually saw.
type samples []int64

// sorted returns the samples in ascending order (in place).
func (s samples) sorted() samples {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile is the nearest-rank q-quantile of sorted samples; 0 when empty.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return float64(s[rank(len(s), q)])
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += float64(v)
	}
	return sum / float64(len(s))
}

// ratio is a/b, or 0 when b is 0 (a per-op rate over no ops).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of a small slice of float64 (sorts a copy).
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// tailMean is the mean of the largest 1% of sorted samples (at least one):
// the expected value above the p99. Unlike the p99 itself it does not sit
// on one of the few discrete costs a simulated device path can take.
func (s samples) tailMean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s[rank(len(s), 0.99):].mean()
}

// quartile is the nearest-rank q-quantile of a small slice of float64
// (sorts a copy): quartile(xs, 0.25) is the lower quartile.
func quartile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return c[rank(len(c), q)]
}

// rank is the index of the nearest-rank q-quantile among n sorted values.
func rank(n int, q float64) int {
	return min(max(int(math.Ceil(q*float64(n)))-1, 0), n-1)
}

// medianRate is the rate, in thousands per second, at which `workers`
// concurrent workers would complete operations that each take the median of
// the per-operation wall times ns. Unlike operations over elapsed time, it
// does not move when the host preempts the virtual processors for a few
// milliseconds: that lands in a few operations' tails, not in the median.
func medianRate(ns samples, workers int) float64 {
	m := ns.sorted().quantile(0.5)
	if m == 0 {
		return 0
	}
	return float64(workers) / m * 1e9 / 1e3
}
