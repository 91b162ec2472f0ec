// Package xrand provides a small, deterministic pseudo-random number
// generator used throughout the simulator.
//
// Reproducibility is a hard requirement for the experiment harness: every
// benchmark trace, workload and simulation must produce identical results
// across runs. The standard library's math/rand/v2 would work, but pinning
// our own SplitMix64 keeps the sequence stable regardless of Go version and
// lets traces be regenerated from a single uint64 seed.
//
// Across platforms only the integer paths (Uint64, Intn, Perm) are
// identical by construction. Geometric and Exp go through math.Log, which
// is assembly on amd64 and s390x and pure Go elsewhere, so their results
// agree only where those implementations round alike. Geometric narrows
// that to the draws inside its fallback bands (about 2^-39/p of them) and
// below its table (2^-10 of them); every other draw is answered by integer
// comparison.
package xrand

import "math"

// RNG is a SplitMix64 pseudo-random number generator. The zero value is a
// valid generator seeded with 0; use New to seed explicitly.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Seed resets the generator to the given seed.
func (r *RNG) Seed(seed uint64) { r.state = seed }

// Uint64 returns the next 64 pseudo-random bits (SplitMix64 step).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32 returns 32 pseudo-random bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection-free approximation is fine here:
	// the bias for n << 2^64 is far below anything observable.
	hi, _ := mul64(r.Uint64(), uint64(n))
	return int(hi)
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n with non-positive n")
	}
	hi, _ := mul64(r.Uint64(), uint64(n))
	return int64(hi)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Exp returns an exponentially distributed float64 with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(u)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Split returns a new generator whose stream is independent of r's
// continued use; convenient for handing sub-seeds to components.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	w0 := t & mask
	k := t >> 32
	t = aHi*bLo + k
	w1 := t & mask
	w2 := t >> 32
	t = aLo*bHi + w1
	k = t >> 32
	hi = aHi*bHi + w2 + k
	lo = (t << 32) | w0
	return hi, lo
}

// WeightedChoice selects an index in [0, len(weights)) with probability
// proportional to weights[i]. Weights must be non-negative with a positive
// sum; otherwise WeightedChoice panics.
func (r *RNG) WeightedChoice(weights []float64) int {
	var sum float64
	for _, w := range weights {
		if w < 0 {
			panic("xrand: negative weight")
		}
		sum += w
	}
	if sum <= 0 {
		panic("xrand: weights sum to zero")
	}
	x := r.Float64() * sum
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// CumTable is a precomputed cumulative-probability table for repeated
// weighted sampling from the same distribution.
type CumTable struct {
	cum []float64
}

// NewCumTable builds a sampling table from non-negative weights.
func NewCumTable(weights []float64) *CumTable {
	cum := make([]float64, len(weights))
	var sum float64
	for i, w := range weights {
		if w < 0 {
			panic("xrand: negative weight")
		}
		sum += w
		cum[i] = sum
	}
	if sum <= 0 {
		panic("xrand: weights sum to zero")
	}
	for i := range cum {
		cum[i] /= sum
	}
	return &CumTable{cum: cum}
}

// Len returns the number of outcomes in the table.
func (t *CumTable) Len() int { return len(t.cum) }

// Sample draws an index from the table using r.
func (t *CumTable) Sample(r *RNG) int {
	x := r.Float64()
	// Binary search for the first cumulative value > x.
	lo, hi := 0, len(t.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if t.cum[mid] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
