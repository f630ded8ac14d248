package main

import "testing"

func TestSummarizeSampleCountAndDeepestPercentile(t *testing.T) {
	cases := []struct {
		n      int
		topPct float64
	}{
		{19, 0},    // not even ten samples beyond the median
		{20, 50},   // exactly ten beyond p50
		{300, 90},  // a p99 over 300 samples rests on 3 values
		{999, 90},  // 9 beyond p99
		{1000, 99}, // 10 beyond p99
		{10000, 99.9},
		{320000, 99.99},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // reversed: summarize must sort
		}
		s := summarize(xs)
		if s.N != c.n || s.TopPct != c.topPct {
			t.Errorf("n=%d: N=%d TopPct=%g, want TopPct=%g", c.n, s.N, s.TopPct, c.topPct)
		}
		if s.Max != float64(c.n) {
			t.Errorf("n=%d: Max=%g", c.n, s.Max)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	s := summarize(xs)
	if s.P50 != 6 {
		t.Errorf("p50 = %g, want 6", s.P50)
	}
	if want := 10.9; s.P99 < want-1e-9 || s.P99 > want+1e-9 {
		t.Errorf("p99 = %g, want %g", s.P99, want)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
	if got := summarize(nil); got.N != 0 || got.P99 != 0 {
		t.Errorf("empty summary = %+v", got)
	}
}

func TestWindowedP99IgnoresOneStalledWindow(t *testing.T) {
	var win []int64
	var xs []float64
	for w := int64(0); w < 5; w++ {
		for i := 0; i < 100; i++ {
			v := 1.0
			if w == 2 && i < 50 {
				v = 500 // half of window 2 stalls
			}
			win = append(win, w)
			xs = append(xs, v)
		}
	}
	med, per := windowedP99(win, xs, 100)
	if med != 1 || len(per) != 5 || per[2] != 500 {
		t.Fatalf("median %g over %v, want 1 with window 2 at 500", med, per)
	}
	if whole := summarize(append([]float64(nil), xs...)).P99; whole != 500 {
		t.Fatalf("whole-run p99 %g, want the stall to set it", whole)
	}
	// Too few samples per window: fall back to the whole-run p99.
	if med, per := windowedP99(win, xs, 1000); med != 500 || per != nil {
		t.Fatalf("fallback = %g %v", med, per)
	}
}
