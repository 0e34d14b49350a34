package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// sample is a set of raw observations kept whole, so percentiles are exact
// nearest-rank values rather than histogram bucket bounds.
type sample []float64

// sorted returns a sorted copy.
func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// nearestRank returns the p-th percentile (0 < p ≤ 100) of sorted values
// by the nearest-rank definition: the smallest value such that at least p
// percent of the observations are less than or equal to it.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// beyond returns how many observations lie strictly above the p-th
// percentile's rank.
func beyond(n int, p float64) int {
	rank := int(math.Ceil(p / 100 * float64(n)))
	return n - rank
}

// quantiles is the summary of one latency sample.
type quantiles struct {
	N             int
	P50, P90, P99 float64
	Max           float64
}

// summarize computes the nearest-rank summary and asserts its ordering.
func summarize(s sample) (quantiles, error) {
	v := s.sorted()
	q := quantiles{N: len(v)}
	if q.N == 0 {
		return q, fmt.Errorf("empty sample")
	}
	q.P50, q.P90, q.P99 = nearestRank(v, 50), nearestRank(v, 90), nearestRank(v, 99)
	q.Max = v[len(v)-1]
	if !(q.P50 <= q.P90 && q.P90 <= q.P99 && q.P99 <= q.Max) {
		return q, fmt.Errorf("percentiles out of order: p50 %v p90 %v p99 %v max %v", q.P50, q.P90, q.P99, q.Max)
	}
	return q, nil
}

// requireTail checks that at least minBeyond observations lie beyond the
// p-th percentile, so the reported tail is an observation with company.
func requireTail(name string, n int, p float64, minBeyond int) error {
	if b := beyond(n, p); b < minBeyond {
		return fmt.Errorf("%s: only %d of %d samples lie beyond p%g (need %d)", name, b, n, p, minBeyond)
	}
	return nil
}

// median returns the median of a non-empty slice (the lower middle value
// for an even count, so it is always an observation).
func median(xs []float64) float64 {
	v := sample(xs).sorted()
	if len(v) == 0 {
		return 0
	}
	return v[(len(v)-1)/2]
}

// ms and us convert durations to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// share returns part/whole, 0 when whole is not positive.
func share(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return part / whole
}
