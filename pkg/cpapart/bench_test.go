package cpapart

import (
	"testing"

	"repro/internal/xrand"
)

func benchCurves(n, ways int) [][]uint64 {
	rng := xrand.New(11)
	curves := make([][]uint64, n)
	for i := range curves {
		curves[i] = syntheticCurve(rng, ways)
	}
	return curves
}

func BenchmarkMinMisses2Threads(b *testing.B) {
	curves := benchCurves(2, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MinMisses{}.Allocate(curves, 16)
	}
}

func BenchmarkMinMisses8Threads(b *testing.B) {
	curves := benchCurves(8, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MinMisses{}.Allocate(curves, 16)
	}
}

func BenchmarkBuddyMinMisses8Threads(b *testing.B) {
	curves := benchCurves(8, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BuddyMinMisses(curves, 16)
	}
}

func BenchmarkBuddyLayout(b *testing.B) {
	sizes := []int{4, 4, 2, 2, 1, 1, 1, 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuddyLayout(sizes, 16); err != nil {
			b.Fatal(err)
		}
	}
}
