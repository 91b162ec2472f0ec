package plru

import "math/bits"

// ARCPolicy is an ARC-style adaptive replacement policy (after Megiddo &
// Modha's ARC, as analyzed in "Analyzing Adaptive Cache Replacement
// Strategies", arXiv:1503.07624), reshaped for a fixed set-associative
// geometry. Each set splits its resident lines into two tiers — T1, lines
// seen once since insertion, and T2, lines seen at least twice — and
// keeps two ghost lists of small signatures of recently evicted lines: B1
// remembers T1 evictions, B2 remembers T2 evictions. A fill whose
// signature is found in B1 means the recency tier was sized too small, so
// the adaptation target p (the intended size of T1) grows; a B2 match
// shrinks it. Victims come from whichever tier is over its target, oldest
// line first, so the set continuously re-balances itself between a
// recency cache and a frequency cache — the adaptivity LRU lacks under
// scans and Random lacks everywhere.
//
// Unlike list-based ARC implementations, lines live in fixed ways:
// membership is a per-line tier tag, order within a tier is an LRU age
// permutation shared by the whole set, and the ghost lists are per-set
// rings of 8-bit partial signatures (the `sig` argument of Fill, e.g. the
// caller's packed tag byte). Partial signatures admit rare false ghost
// hits — the cost of keeping the ghost state at two bytes per way — which
// only nudge p, never correctness. Everything is flat arrays; no method
// allocates.
//
// The policy is exactly reproducible (no randomness), so it runs under
// the same differential testing as the static policies.
type ARCPolicy struct {
	sets, ways int
	age        []uint8  // sets*ways, LRU permutation per set (0 = MRU)
	state      []uint8  // sets*ways: arcFree, arcT1, arcT2
	sig        []uint8  // sets*ways, signature installed by Fill
	sigok      []bool   // sets*ways, sig is valid (line arrived via Fill)
	t1cnt      []uint8  // per set, resident T1 lines
	target     []uint8  // per set, p: the adaptation target for |T1|
	b1, b2     []uint16 // sets*ways ghost rings: 0 empty, else arcGhostTag|sig
	b1h, b2h   []uint8  // per set, ring heads
}

const (
	arcFree = uint8(iota) // way holds no tracked line
	arcT1                 // seen once since insertion
	arcT2                 // seen at least twice
)

// arcGhostTag marks a ghost ring entry as occupied; the low 8 bits hold
// the evicted line's signature.
const arcGhostTag = uint16(0x100)

// NewARCPolicy returns an ARC policy for the given geometry. All ways
// start free with the adaptation target at ways/2.
func NewARCPolicy(sets, ways int) *ARCPolicy {
	validateGeometry(sets, ways)
	p := &ARCPolicy{
		sets: sets, ways: ways,
		age:    make([]uint8, sets*ways),
		state:  make([]uint8, sets*ways),
		sig:    make([]uint8, sets*ways),
		sigok:  make([]bool, sets*ways),
		t1cnt:  make([]uint8, sets),
		target: make([]uint8, sets),
		b1:     make([]uint16, sets*ways),
		b2:     make([]uint16, sets*ways),
		b1h:    make([]uint8, sets),
		b2h:    make([]uint8, sets),
	}
	for s := 0; s < sets; s++ {
		p.target[s] = uint8(ways / 2)
		for w := 0; w < ways; w++ {
			p.age[s*ways+w] = uint8(w)
		}
	}
	return p
}

// Kind returns ARC.
func (p *ARCPolicy) Kind() Kind { return ARC }

// Ways returns the associativity.
func (p *ARCPolicy) Ways() int { return p.ways }

// Sets returns the number of sets.
func (p *ARCPolicy) Sets() int { return p.sets }

// SetPartition is a no-op for ARC: hits never consult the partition and
// victim scoping is entirely expressed through the Victim mask.
func (p *ARCPolicy) SetPartition(masks []WayMask) {}

// promote moves way to the MRU position of set (LRU permutation update).
func (p *ARCPolicy) promote(set, way int) {
	base := set * p.ways
	old := p.age[base+way]
	for w := 0; w < p.ways; w++ {
		if a := p.age[base+w]; a < old {
			p.age[base+w] = a + 1
		}
	}
	p.age[base+way] = 0
}

// Touch records a hit: a T1 line is promoted to T2 (it has now been seen
// twice), a T2 line stays T2, and either becomes MRU. A touch on a free
// way (possible for callers that never Fill) enters the line in T1.
func (p *ARCPolicy) Touch(set, way, core int) {
	i := set*p.ways + way
	switch p.state[i] {
	case arcFree:
		p.state[i] = arcT1
		p.t1cnt[set]++
	case arcT1:
		p.state[i] = arcT2
		p.t1cnt[set]--
	}
	p.promote(set, way)
}

// Fill installs a new line in (set, way). The line it replaces (if any)
// is remembered in its tier's ghost ring; then the new signature probes
// the ghosts: a B1 match grows the T1 target and installs the line in T2
// (it was evicted too eagerly from the recency tier), a B2 match shrinks
// the target and also installs in T2, and a miss in both installs in T1.
// The filled way becomes MRU.
func (p *ARCPolicy) Fill(set, way, core int, sig uint8) {
	i := set*p.ways + way
	if p.state[i] != arcFree && p.sigok[i] {
		p.ghostPush(set, p.state[i], p.sig[i])
	}
	if p.state[i] == arcT1 {
		p.t1cnt[set]--
	}
	tier := arcT1
	if p.ghostTake(p.b1, set, sig) {
		if p.target[set] < uint8(p.ways) {
			p.target[set]++
		}
		tier = arcT2
	} else if p.ghostTake(p.b2, set, sig) {
		if p.target[set] > 0 {
			p.target[set]--
		}
		tier = arcT2
	}
	p.state[i] = tier
	if tier == arcT1 {
		p.t1cnt[set]++
	}
	p.sig[i] = sig
	p.sigok[i] = true
	p.promote(set, way)
}

// Invalidate frees (set, way) — tier membership cleared, no ghost entry
// (the line left outside replacement, so it carries no eviction signal) —
// and demotes it to the LRU position, making it the preferred victim.
func (p *ARCPolicy) Invalidate(set, way int) {
	i := set*p.ways + way
	if p.state[i] == arcT1 {
		p.t1cnt[set]--
	}
	p.state[i] = arcFree
	p.sigok[i] = false
	base := set * p.ways
	old := p.age[base+way]
	for w := 0; w < p.ways; w++ {
		if a := p.age[base+w]; a > old {
			p.age[base+w] = a - 1
		}
	}
	p.age[base+way] = uint8(p.ways - 1)
}

// Victim selects the eviction way within the allowed mask: a free way if
// the mask holds one (oldest first), else the oldest line of the tier
// that is at or over its target — T1 when |T1| >= p (ARC's REPLACE rule,
// which is what makes a scan evict its own tail instead of the frequency
// tier), otherwise T2 — falling back to the other tier when the mask has
// no line of the preferred one. Victim reads but never mutates policy
// state, and never allocates.
func (p *ARCPolicy) Victim(set, core int, allowed WayMask) int {
	checkVictimArgs(set, p.sets, p.ways, allowed)
	m := uint64(allowed) & uint64(Full(p.ways))
	if w := p.oldest(set, m, arcFree); w >= 0 {
		return w
	}
	pref := arcT2
	if p.t1cnt[set] >= p.target[set] {
		pref = arcT1
	}
	if w := p.oldest(set, m, pref); w >= 0 {
		return w
	}
	return p.oldest(set, m, arcT1+arcT2-pref)
}

// oldest returns the masked way in the given state with the largest age,
// or -1 when the mask holds none.
func (p *ARCPolicy) oldest(set int, m uint64, state uint8) int {
	base := set * p.ways
	best, bestAge := -1, -1
	for v := m; v != 0; {
		w := bits.TrailingZeros64(v)
		v &^= 1 << uint(w)
		if p.state[base+w] != state {
			continue
		}
		if a := int(p.age[base+w]); a > bestAge {
			best, bestAge = w, a
		}
	}
	return best
}

// ghostPush records an evicted line's signature in its tier's ghost ring,
// overwriting the oldest entry when the ring is full.
func (p *ARCPolicy) ghostPush(set int, tier, sig uint8) {
	ring, head := p.b1, p.b1h
	if tier == arcT2 {
		ring, head = p.b2, p.b2h
	}
	ring[set*p.ways+int(head[set])] = arcGhostTag | uint16(sig)
	head[set] = uint8((int(head[set]) + 1) % p.ways)
}

// ghostTake reports whether sig is present in the set's slice of the
// given ghost ring, clearing the matched entry (a ghost hit consumes it).
func (p *ARCPolicy) ghostTake(ring []uint16, set int, sig uint8) bool {
	base := set * p.ways
	want := arcGhostTag | uint16(sig)
	for j := 0; j < p.ways; j++ {
		if ring[base+j] == want {
			ring[base+j] = 0
			return true
		}
	}
	return false
}

// Tier returns 0 for a free way, 1 for T1 and 2 for T2. Exposed for
// tests and introspection.
func (p *ARCPolicy) Tier(set, way int) int { return int(p.state[set*p.ways+way]) }

// Target returns the set's current adaptation target p for |T1|.
func (p *ARCPolicy) Target(set int) int { return int(p.target[set]) }
