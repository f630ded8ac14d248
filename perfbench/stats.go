package main

import (
	"math"
	"sort"
)

// tailPercentiles are the percentiles a latency summary may name as its
// deepest reportable one, from shallow to deep.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// summary is a latency distribution reduced to what the benchmark reports:
// the median, the 99th percentile, the sample count, and the deepest
// percentile that still has at least ten samples beyond it (a p99 over 300
// samples rests on three values and is flagged by a shallower TopPct).
type summary struct {
	N      int
	P50    float64
	P99    float64
	TopPct float64 // deepest of tailPercentiles with >= 10 samples beyond it; 0 if none
	Top    float64 // the value at TopPct
	Max    float64
}

// summarize sorts xs in place and summarizes it.
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sort.Float64s(xs)
	s.P50 = percentileSorted(xs, 50)
	s.P99 = percentileSorted(xs, 99)
	s.Max = xs[len(xs)-1]
	for _, p := range tailPercentiles {
		if beyond(len(xs), p) >= 10 {
			s.TopPct = p
			s.Top = percentileSorted(xs, p)
		}
	}
	return s
}

// beyond is the number of samples out of n that lie above the p-th
// percentile. The epsilon absorbs the rounding of 100-p (100-99.9 is not
// 0.1 in floating point).
func beyond(n int, p float64) int {
	return int(math.Floor(float64(n)*(100-p)/100 + 1e-9))
}

// percentileSorted returns the p-th percentile (0..100) of sorted xs with
// linear interpolation between closest ranks.
func percentileSorted(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	rank := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if hi >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := rank - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// windowedP99 groups samples by window (win[i] is sample i's window) and
// returns the median of the windows' p99s, with those p99s in window order.
// A stall confined to one window moves the median by at most one rank,
// where it would move a whole-run p99 by the share of samples it delayed.
// Windows with fewer than minN samples are skipped; if none is left, the
// whole-run p99 is returned.
func windowedP99(win []int64, xs []float64, minN int) (float64, []float64) {
	byWindow := map[int64][]float64{}
	var order []int64
	for i, w := range win {
		if _, ok := byWindow[w]; !ok {
			order = append(order, w)
		}
		byWindow[w] = append(byWindow[w], xs[i])
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	var p99s []float64
	for _, w := range order {
		if ws := byWindow[w]; len(ws) >= minN {
			p99s = append(p99s, summarize(ws).P99)
		}
	}
	if len(p99s) == 0 {
		return summarize(append([]float64(nil), xs...)).P99, nil
	}
	return median(p99s), p99s
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return percentileSorted(c, 50)
}

// ratio returns num/den, or 0 when den is 0: a counter that did not move
// reads as zero rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
