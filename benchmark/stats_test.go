package main

import (
	"math/rand"
	"testing"
)

// The tail is the highest percentile, at most the one asked for, with at
// least ten samples beyond it, and its sample count is reported.
func TestTailPercentileRule(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		n       int
		wantPct float64
	}{
		{5000, 99}, {1000, 99}, {999, 100 * (1 - 10.0/999)}, {500, 98}, {100, 90}, {20, 50}, {19, 0}, {0, 0},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = rng.ExpFloat64()
		}
		sum := summarize(xs, 99)
		if sum.n != tc.n {
			t.Errorf("n=%d: summary reports %d samples", tc.n, sum.n)
		}
		if sum.pct != tc.wantPct {
			t.Errorf("n=%d: tail percentile %v, want %v", tc.n, sum.pct, tc.wantPct)
		}
		if sum.pct == 0 {
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > sum.tailMS {
				beyond++
			}
		}
		if beyond < minTail {
			t.Errorf("n=%d: p%v has %d samples beyond it, want at least %d", tc.n, sum.pct, beyond, minTail)
		}
		if sum.pct < 99 && beyond != minTail {
			t.Errorf("n=%d: p%v is not the highest percentile with %d beyond (has %d)", tc.n, sum.pct, minTail, beyond)
		}
	}
}

func TestQuantileMatchesInclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 10], n=4, method="inclusive") == [2, 3, 4]
	xs := []float64{1, 2, 3, 4, 10}
	for q, want := range map[float64]float64{0.25: 2, 0.5: 3, 0.75: 4, 0: 1, 1: 10} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}
