package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: with fewer, the value is the luck of a handful of requests.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of an ascending slice. It
// refuses — ok is false — when fewer than minBeyond samples lie beyond
// the returned one, so a tail that the run did not sample is never
// printed as if it had been.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, false
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if n-1-idx < minBeyond {
		return 0, false
	}
	return sorted[idx], true
}

// mustPercentile is percentile for the metrics the contract obliges every
// run to print: an unsupported percentile is an error of the run, not a
// silently different statistic.
func mustPercentile(what string, sorted []float64, p float64) (float64, error) {
	v, ok := percentile(sorted, p)
	if !ok {
		return 0, fmt.Errorf("%s: p%g needs %d samples beyond it, the run has %d in total", what, p*100, minBeyond, len(sorted))
	}
	return v, nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count) without reordering xs. It is how the per-round values
// of a run collapse into the one number the run reports.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// sortedCopy returns xs in ascending order, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
