package main

import (
	"fmt"
	"regexp"
	"slices"
)

// median returns the median of xs (the mean of the middle two for an
// even count), or 0 for no samples.  xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the mean of xs, or 0 for no samples.
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

// rank is the 1-based position of the nearest-rank pct-th percentile
// among n sorted samples: the smallest sample with at least pct% of
// the samples at or below it.
func rank(n, pct int) int {
	return max(1, (pct*n+99)/100) // ceil(pct·n/100)
}

// nearestRank returns the nearest-rank pct-th percentile of xs and the
// number of samples ranked beyond it.  xs must be non-empty; it is not
// modified.
func nearestRank(xs []float64, pct int) (value float64, beyond int) {
	s := slices.Clone(xs)
	slices.Sort(s)
	r := rank(len(s), pct)
	return s[r-1], len(s) - r
}

// minSamples returns the smallest sample count whose nearest-rank
// pct-th percentile has at least tail samples beyond it.
func minSamples(pct, tail int) int {
	n := tail + 1
	for n-rank(n, pct) < tail {
		n++
	}
	return n
}

// metricName is the benchmark contract's metric-name rule: a letter or
// digit, then letters, digits, '_', '.' or '-', at most 64 in all.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetricNames(ms map[string]metric) error {
	for name := range ms {
		if !metricName.MatchString(name) {
			return fmt.Errorf("invalid metric name %q", name)
		}
	}
	return nil
}
