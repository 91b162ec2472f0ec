// Package profiling implements the paper's profiling logic: per-thread
// Auxiliary Tag Directories (ATDs) feeding Stack Distance Histograms
// (SDHs). For true LRU the ATD reports exact stack distances; for the
// pseudo-LRU policies it builds the paper's *estimated* SDH (eSDH):
//
//   - NRU (§III-A): on a hit to a line whose used bit is 1, the distance
//     is estimated as ceil(S × U) where U is the number of used bits in
//     the set (including the accessed line) and S is a scaling factor
//     (1.0, 0.75 or 0.5 in the paper). Hits on lines with used bit 0
//     (distance somewhere in [U+1, A]) perform no SDH update, per the
//     paper.
//   - BT (§III-B): the estimate is A − (IDbits XOR pathBits) computed by
//     the replacement package's BTPolicy.EstStackPos.
//
// The ATDs apply set sampling (paper: 1 of every 32 sets) and the SDH
// registers are halved at every repartition interval to age the profile.
package profiling

import "repro/internal/stats"

// SDH is a stack distance histogram with A+1 registers: registers 1..A
// count hits at each LRU stack distance and register A+1 counts ATD
// misses (paper Figure 2(b)).
type SDH struct {
	ways int
	h    *stats.Histogram // bin i (0-based) = distance i+1; bin ways = miss register
}

// NewSDH returns an SDH for an A-way ATD.
func NewSDH(ways int) *SDH {
	if ways <= 0 {
		panic("profiling: SDH needs positive ways")
	}
	return &SDH{ways: ways, h: stats.NewHistogram(ways + 1)}
}

// Ways returns the associativity the SDH was built for.
func (s *SDH) Ways() int { return s.ways }

// RecordHit registers a hit at stack distance dist (1-based, clamped to
// [1, ways]).
func (s *SDH) RecordHit(dist int) {
	if dist < 1 {
		dist = 1
	}
	if dist > s.ways {
		dist = s.ways
	}
	s.h.Observe(dist - 1)
}

// RecordMiss increments the miss register (distance A+1).
func (s *SDH) RecordMiss() { s.h.Observe(s.ways) }

// Register returns r_d for d in [1, ways+1] (paper numbering).
func (s *SDH) Register(d int) uint64 { return s.h.Bin(d - 1) }

// Total returns the number of recorded accesses.
func (s *SDH) Total() uint64 { return s.h.Total() }

// Misses predicts the number of misses the thread would suffer if
// assigned w ways: Σ_{d=w+1}^{A+1} r_d (paper Figure 2(c)). w is clamped
// to [0, ways]; Misses(0) is the total access count.
func (s *SDH) Misses(w int) uint64 {
	if w < 0 {
		w = 0
	}
	if w > s.ways {
		w = s.ways
	}
	return s.h.TailSum(w)
}

// MissCurve returns the predicted miss counts for every allocation
// 0..ways (index = number of assigned ways).
func (s *SDH) MissCurve() []uint64 {
	out := make([]uint64, s.ways+1)
	for w := 0; w <= s.ways; w++ {
		out[w] = s.Misses(w)
	}
	return out
}

// Halve divides every register by two — the paper's saturation guard
// applied at each interval boundary.
func (s *SDH) Halve() { s.h.Halve() }

// Reset zeroes every register.
func (s *SDH) Reset() { s.h.Reset() }

// Clone returns a deep copy (used by the partitioner to snapshot a
// consistent view).
func (s *SDH) Clone() *SDH {
	return &SDH{ways: s.ways, h: s.h.Clone()}
}
