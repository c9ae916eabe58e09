package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported tail percentile.
const minTail = 10

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks (the "inclusive" method of Python's
// statistics.quantiles). xs must be sorted and non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// tail is a latency summary: the median and the highest percentile, at most
// want, that has at least minTail samples beyond it.
type tail struct {
	n      int
	p50    float64
	pct    float64 // percentile reported as the tail, e.g. 99
	tailMS float64
	max    float64
}

// tailPercentile is the highest percentile (at most want, in percent) with
// at least minTail of n samples beyond it; 0 when n is too small to leave
// minTail samples beyond the median.
func tailPercentile(n int, want float64) float64 {
	if n <= 0 {
		return 0
	}
	p := 100 * (1 - float64(minTail)/float64(n))
	if p > want {
		p = want
	}
	if p < 50 {
		return 0
	}
	return p
}

// summarize sorts xs in place and applies the percentile rule for want.
func summarize(xs []float64, want float64) tail {
	t := tail{n: len(xs)}
	if len(xs) == 0 {
		return t
	}
	sort.Float64s(xs)
	t.p50, t.max = quantile(xs, 0.5), xs[len(xs)-1]
	if t.pct = tailPercentile(len(xs), want); t.pct > 0 {
		t.tailMS = quantile(xs, t.pct/100)
	}
	return t
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
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
