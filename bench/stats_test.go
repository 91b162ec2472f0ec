package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ q, want float64 }{
		{0.50, 50}, {0.95, 100}, {0.90, 90}, {0.91, 100}, {0.10, 10}, {0.001, 10}, {1, 100},
	} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%.3f) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.5); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("no samples: %v", got)
	}
	// A 10 % shift of every sample moves the result by 10 %.
	shifted := make([]float64, len(s))
	for i, v := range s {
		shifted[i] = v * 1.1
	}
	if got := percentile(shifted, 0.5) / percentile(s, 0.5); math.Abs(got-1.1) > 1e-12 {
		t.Errorf("shifted median ratio %v", got)
	}
}

// The expectations are statistics.quantiles(values, n=4) of Python 3.
func TestIQRSpreadMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		values []float64
		want   float64 // (q3 - q1) / median
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, (8.25 - 2.75) / 5.5},
		{[]float64{100, 101, 103, 99, 102}, (102.5 - 99.5) / 101},
		{[]float64{5, 7}, (7.5 - 4.5) / 6},
		{[]float64{3, 3, 3, 3}, 0},
		{[]float64{4}, 0},
	} {
		if got := iqrSpread(c.values); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("iqrSpread(%v) = %v, want %v", c.values, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
}
