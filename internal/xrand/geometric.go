package xrand

import "math"

// Geometric samples geometrically distributed integers >= 0 with a fixed
// success probability p per trial (mean (1-p)/p). Its value for a 53-bit
// draw d is defined by the formula in exact,
//
//	int(math.Log(d/2^53) / math.Log(1-p))
//
// and Draw returns exactly that, but answers almost every draw from a
// table instead of two logarithms.
//
// The result is k when d lies between the real thresholds
// T(k+1) < d <= T(k), T(k) = 2^53·exp(k·logq), so the table holds the
// thresholds and start maps the top bits of d to the first one worth
// comparing against. The computed quotient is not the real one, though:
// math.Log is within 1 ulp (relative 2^-52) and the division adds 2^-53,
// so the quotient carries a relative error below 2^-51 and can land on the
// other side of an integer k when d is within k·|logq|·2^-51 of T(k),
// relatively. The table stops at T(k) >= 2^43, where k·|logq| <= 10·ln 2,
// so that window is narrower than 2^-48; the tabulated T(k) itself (one
// rounded product, one math.Exp) is within 2^-49. Each threshold is
// therefore stored as a band of ±2^-40 (±2 to cover the integer
// conversion), 250 times wider than both together, and a draw is answered
// from the table only when it is strictly outside every band it is
// compared with. Inside a band, below the table and for d == 0 the formula
// itself runs. The two therefore agree on every draw, on any platform
// whose math.Log is within a couple of hundred ulp.
type Geometric struct {
	logq    float64 // math.Log(1-p)
	certain bool    // p == 1: always 0, and no randomness is consumed
	// start[d>>geoShift] is a result every draw of that bucket is known
	// to reach: the bucket lies wholly below the band of T(start).
	start [1 << geoIndexBits]uint16
	// band[k] surrounds T(k+1), the boundary between results k and k+1;
	// the last entry spans every draw and so ends the table.
	band []geoBand
}

type geoBand struct{ lo, hi uint64 }

const (
	geoIndexBits = 10
	geoShift     = 53 - geoIndexBits
	geoGuard     = 1.0 / (1 << 40)
	// geoMaxBands bounds the table for small p, whose thresholds are
	// dense; draws past the last band take the formula.
	geoMaxBands = 512
)

// NewGeometric prepares a sampler for success probability p, which must be
// in (0, 1] and large enough that 1-p differs from 1 (below about 1.1e-16
// the formula's divisor is log(1) = 0).
func NewGeometric(p float64) *Geometric {
	if !(p > 0 && p <= 1) || 1-p == 1 {
		panic("xrand: Geometric probability out of range")
	}
	g := &Geometric{logq: math.Log(1 - p), certain: p == 1}
	if g.certain {
		return g
	}
	for k := 1; k <= geoMaxBands; k++ {
		t := math.Exp(float64(k)*g.logq) * (1 << 53)
		if t < 1<<geoShift {
			break
		}
		g.band = append(g.band, geoBand{
			lo: uint64(t*(1-geoGuard)) - 2,
			hi: uint64(t*(1+geoGuard)) + 2,
		})
	}
	g.band = append(g.band, geoBand{lo: 0, hi: math.MaxUint64})
	// Buckets ascend, so the result their largest draw is sure of descends.
	k := len(g.band) - 1
	for i := range g.start {
		top := uint64(i+1)<<geoShift - 1
		for k > 0 && g.band[k-1].lo <= top {
			k--
		}
		g.start[i] = uint16(k)
	}
	return g
}

// Draw returns the next sample, consuming one Uint64 of r (none when
// p == 1).
func (g *Geometric) Draw(r *RNG) int {
	if g.certain {
		return 0
	}
	return g.value(r.Uint64() >> 11)
}

// value maps a 53-bit draw to its sample.
func (g *Geometric) value(d uint64) int {
	// d is known to be below the band of T(k); while it is also below
	// the band of T(k+1), the result is at least k+1.
	k := int(g.start[d>>geoShift])
	for d < g.band[k].lo {
		k++
	}
	if d > g.band[k].hi {
		return k
	}
	return g.exact(d)
}

// exact is the defining formula: the slow path, and the oracle the tests
// hold value to.
func (g *Geometric) exact(d uint64) int {
	u := float64(d) / (1 << 53)
	if u == 0 {
		u = math.SmallestNonzeroFloat64 // avoid log(0)
	}
	return int(math.Log(u) / g.logq)
}
