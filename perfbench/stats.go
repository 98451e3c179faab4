package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile
// before it is reported: a p99 needs at least 1,000 samples.
const minBeyond = 10

// rank returns the 0-based nearest-rank index of quantile q (0 < q <= 1)
// among n sorted samples: the smallest value with at least a q share of
// the samples at or below it.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// percentile is the exact nearest-rank q-quantile of samples (which it
// sorts in place). It fails unless at least minBeyond samples lie
// beyond the chosen rank, so a tail figure is never read off a handful
// of samples.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("no samples for p%g", q*100)
	}
	i := rank(n, q)
	if beyond := n - 1 - i; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, beyond, minBeyond)
	}
	sort.Float64s(samples)
	return samples[i], nil
}

// median is the middle value of xs (the mean of the two middle values
// for an even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// latencies collects one latency distribution in milliseconds. A
// failed or refused operation is recorded as +Inf: it misses every
// latency limit, so it pushes the percentiles up instead of vanishing.
type latencies struct {
	ms []float64
}

func (l *latencies) add(ms float64) { l.ms = append(l.ms, ms) }
func (l *latencies) fail()          { l.ms = append(l.ms, math.Inf(1)) }
func (l *latencies) count() int     { return len(l.ms) }

// p returns the q-quantile under the tail rule of percentile.
func (l *latencies) p(q float64) (float64, error) {
	return percentile(append([]float64(nil), l.ms...), q)
}
