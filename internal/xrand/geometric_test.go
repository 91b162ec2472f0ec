package xrand_test

import (
	"math"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/xrand"
)

const maxDraw = 1<<53 - 1

// simulatorPs returns every success probability the trace generator
// samples with: the recency-rank bias and each catalog benchmark's
// per-instruction event probability.
func simulatorPs() []float64 {
	ps := []float64{trace.RecentBias}
	seen := map[float64]bool{trace.RecentBias: true}
	for _, name := range workload.Names() {
		prof := workload.MustGet(name)
		if p := prof.MemRatio + prof.BranchRatio; !seen[p] {
			seen[p] = true
			ps = append(ps, p)
		}
	}
	return ps
}

// checkBoundaries compares the sampler with the formula on every draw
// within ±64 of each tabulated threshold and of each edge of its fallback
// band, and on the extreme draws: 0, 1, the largest, and both sides of the
// table's end.
func checkBoundaries(t *testing.T, g *xrand.Geometric, p float64) {
	t.Helper()
	edges := g.Edges() // descending: the last band's lower edge is edges[len-3]
	points := append(edges, 0, 1, maxDraw)
	if len(edges) > 0 {
		points = append(points, edges[len(edges)-3]-1) // first draw past the table
	}
	for _, c := range points {
		lo, hi := uint64(0), uint64(maxDraw)
		if c > 64 {
			lo = c - 64
		}
		if c+64 < maxDraw {
			hi = c + 64
		}
		for d := lo; d <= hi; d++ {
			if got, want := g.Value(d), g.Exact(d); got != want {
				t.Fatalf("p=%v draw %d (near %d): sampler %d, formula %d", p, d, c, got, want)
			}
		}
	}
}

// checkStream draws n samples and holds each to the formula applied to
// the same RNG output, then compares the generators' next outputs: the
// sampler must consume exactly one Uint64 per draw, as the formula does.
func checkStream(t *testing.T, g *xrand.Geometric, p float64, seed uint64, n int) {
	t.Helper()
	a, b := xrand.New(seed), xrand.New(seed)
	for i := 0; i < n; i++ {
		got, want := g.Draw(a), g.Exact(b.Uint64()>>11)
		if got != want {
			t.Fatalf("p=%v seed %d draw #%d: sampler %d, formula %d", p, seed, i, got, want)
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("p=%v seed %d draw #%d: sampler consumed a different number of RNG outputs", p, seed, i)
		}
	}
}

func TestGeometricEquivalence(t *testing.T) {
	n := 10_000_000
	if testing.Short() {
		n = 200_000
	}
	for i, p := range simulatorPs() {
		g := xrand.NewGeometric(p)
		checkBoundaries(t, g, p)
		checkStream(t, g, p, uint64(1000+i), n)
	}
}

// TestGeometricEquivalenceOddPs covers probabilities the simulator never
// uses but the constructor accepts: thresholds denser than the table can
// hold, a table of one band, and the smallest p there is.
func TestGeometricEquivalenceOddPs(t *testing.T) {
	for _, p := range []float64{0x1p-53, 1e-9, 1e-3, 0.5, 0.999, 1 - 0x1p-53} {
		g := xrand.NewGeometric(p)
		checkBoundaries(t, g, p)
		checkStream(t, g, p, 7, 100_000)
	}
}

func TestGeometricRejectsBadP(t *testing.T) {
	// 1e-17 is in (0, 1] but 1-p rounds to 1: the formula would divide
	// by log(1) = 0 and convert -Inf to int.
	for _, p := range []float64{0, -0.1, 1.0000001, math.NaN(), math.Inf(1), 1e-17, 0x1p-54} {
		func() {
			defer func() {
				if r := recover(); r != "xrand: Geometric probability out of range" {
					t.Errorf("NewGeometric(%v): recovered %v, want the range panic", p, r)
				}
			}()
			xrand.NewGeometric(p)
		}()
	}
}

// FuzzGeometricEquivalence holds the sampler to the formula for arbitrary
// probabilities and seeds; a p the constructor must refuse has to panic.
func FuzzGeometricEquivalence(f *testing.F) {
	for _, p := range simulatorPs()[:3] {
		f.Add(math.Float64bits(p), uint64(1))
	}
	f.Add(math.Float64bits(1), uint64(2))
	f.Add(math.Float64bits(1e-12), uint64(3))
	f.Add(math.Float64bits(1e-17), uint64(4))
	f.Fuzz(func(t *testing.T, pBits uint64, seed uint64) {
		p := math.Float64frombits(pBits)
		if !(p > 0 && p <= 1) || 1-p == 1 {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewGeometric(%v) did not panic", p)
				}
			}()
			xrand.NewGeometric(p)
			return
		}
		g := xrand.NewGeometric(p)
		if p == 1 { // no table: always 0, from no randomness
			a, b := xrand.New(seed), xrand.New(seed)
			if v := g.Draw(a); v != 0 || a.Uint64() != b.Uint64() {
				t.Fatalf("p=1: drew %d or consumed randomness", v)
			}
			return
		}
		checkBoundaries(t, g, p)
		checkStream(t, g, p, seed, 20_000)
	})
}
