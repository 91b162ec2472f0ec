package plru

import "math/bits"

// AWRPPolicy implements the Adaptive Weight Ranking Policy
// (Swain et al., arXiv:1107.4851): every line carries a weight that
// combines recency and access frequency, and the victim is the line with
// the lowest weight. Where pure LRU ranks by last access alone, AWRP lets
// a line's accumulated popularity defend it against a single cold touch —
// the "adaptive" ranking that makes the policy scan-resistant — while the
// recency term guarantees dead popular lines still age out.
//
// Representation: a per-set logical clock (incremented on every access to
// the set) plus, per line, the clock stamp of its last access and an
// 8-bit saturating access-frequency counter. The ranking weight is
//
//	weight(line) = stamp + freqBoost * freq
//
// so one unit of frequency is worth freqBoost clock ticks of recency.
// With freq saturated at 255 a hot line can outrank at most
// freqBoost*255 ticks of staleness, which bounds how long a formerly-hot
// line can squat. Fill (a new line) starts freq at 1; Touch (a hit)
// increments it. All state is flat arrays; nothing ever allocates.
//
// AWRP is exactly reproducible (no randomness, no global state shared
// between sets), so it runs under the same differential testing as the
// static policies.
type AWRPPolicy struct {
	sets, ways int
	clock      []uint64 // per set
	stamp      []uint64 // sets*ways, clock value of the last access
	freq       []uint8  // sets*ways, saturating access counter
}

// awrpFreqBoost is the weight of one frequency count in clock ticks.
// 16 ≈ two full rounds of an 8-way set: a line must sit untouched for
// two set rounds before it loses a rank step earned by one extra hit.
const awrpFreqBoost = 16

// NewAWRPPolicy returns an AWRP policy for the given geometry. All lines
// start with weight 0 (clock 0, frequency 0); ties break toward the
// lowest way index, so the initial victim order is way 0 upward.
func NewAWRPPolicy(sets, ways int) *AWRPPolicy {
	validateGeometry(sets, ways)
	return &AWRPPolicy{
		sets:  sets,
		ways:  ways,
		clock: make([]uint64, sets),
		stamp: make([]uint64, sets*ways),
		freq:  make([]uint8, sets*ways),
	}
}

// Kind returns AWRP.
func (p *AWRPPolicy) Kind() Kind { return AWRP }

// Ways returns the associativity.
func (p *AWRPPolicy) Ways() int { return p.ways }

// Sets returns the number of sets.
func (p *AWRPPolicy) Sets() int { return p.sets }

// SetPartition is a no-op for AWRP: hits never consult the partition and
// victim scoping is entirely expressed through the Victim mask.
func (p *AWRPPolicy) SetPartition(masks []WayMask) {}

// Touch records a hit: the line's stamp moves to the current clock tick
// and its frequency count rises (saturating at 255).
func (p *AWRPPolicy) Touch(set, way, core int) {
	p.clock[set]++
	i := set*p.ways + way
	p.stamp[i] = p.clock[set]
	if p.freq[i] < 255 {
		p.freq[i]++
	}
}

// Fill records a new line: stamp at the current tick, frequency reset to
// 1 — a fresh line starts with exactly one access of credit, however hot
// the line it replaced was.
func (p *AWRPPolicy) Fill(set, way, core int, sig uint8) {
	p.clock[set]++
	i := set*p.ways + way
	p.stamp[i] = p.clock[set]
	p.freq[i] = 1
}

// Invalidate zeroes the line's weight (stamp and frequency), making the
// freed way the minimum-weight — hence preferred — victim until refilled.
func (p *AWRPPolicy) Invalidate(set, way int) {
	i := set*p.ways + way
	p.stamp[i] = 0
	p.freq[i] = 0
}

// Victim returns the minimum-weight way within the allowed mask, breaking
// ties toward the lowest way index. It never allocates.
func (p *AWRPPolicy) Victim(set, core int, allowed WayMask) int {
	checkVictimArgs(set, p.sets, p.ways, allowed)
	base := set * p.ways
	best := -1
	var bestW uint64
	for v := uint64(allowed) & uint64(Full(p.ways)); v != 0; {
		w := bits.TrailingZeros64(v)
		v &^= 1 << uint(w)
		weight := p.stamp[base+w] + awrpFreqBoost*uint64(p.freq[base+w])
		if best < 0 || weight < bestW {
			best, bestW = w, weight
		}
	}
	return best
}

// Weight returns the current ranking weight of (set, way) — the value
// Victim minimizes. Exposed for tests and introspection.
func (p *AWRPPolicy) Weight(set, way int) uint64 {
	i := set*p.ways + way
	return p.stamp[i] + awrpFreqBoost*uint64(p.freq[i])
}

// Freq returns the saturating access-frequency count of (set, way).
func (p *AWRPPolicy) Freq(set, way int) uint8 { return p.freq[set*p.ways+way] }
