package main

import (
	"math"
	"slices"
)

// percentile returns the q-th quantile (0 < q <= 1) of an ascending
// sample by nearest rank: the smallest element with at least q of the
// sample at or below it. No interpolation and no buckets, so a 10 % shift
// of the distribution moves the result by 10 %.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

func median(values []float64) float64 {
	s := slices.Sorted(slices.Values(values))
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqrSpread is the distance between the first and third quartile as a
// share of the median, the quartiles as Python's
// statistics.quantiles(values, n=4) computes them. It needs two values.
func iqrSpread(values []float64) float64 {
	s := slices.Sorted(slices.Values(values))
	quartile := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if len(s) < 2 || med == 0 {
		return 0
	}
	return (quartile(3) - quartile(1)) / math.Abs(med)
}
