package plru

import "math/bits"

// NRUPolicy implements the Not Recently Used replacement scheme of the Sun
// UltraSPARC T2 (paper §III-A): every line carries one used bit, set on any
// access; when an access would leave every used bit in its scope at 1, all
// other bits in the scope are cleared. A single cache-global replacement
// pointer — shared by all sets and all cores — gives victim selection its
// "random-like" character: the search for a used==0 line starts at the
// pointer's way and the pointer rotates forward one way after every
// replacement.
//
// Partitioning (paper §III-A, enforcement): the victim search is restricted
// to the core's allowed mask, skipping inaccessible ways, and the used-bit
// reset rule is scoped to the core's owned ways ("if all the used bits of
// the owned ways are set to 1, we reset all used bits except the one that
// belongs to the line currently accessed").
type NRUPolicy struct {
	sets, ways, cores int
	used              []uint64 // one word per set: bit w is way w's used bit
	ptr               int      // cache-global replacement pointer (way index)
	masks             []WayMask
}

// NewNRUPolicy returns an NRU policy for the given geometry.
func NewNRUPolicy(sets, ways, cores int) *NRUPolicy {
	validateGeometry(sets, ways)
	if cores <= 0 {
		cores = 1
	}
	return &NRUPolicy{
		sets:  sets,
		ways:  ways,
		cores: cores,
		used:  make([]uint64, sets),
	}
}

// Kind returns NRU.
func (p *NRUPolicy) Kind() Kind { return NRU }

// Ways returns the associativity.
func (p *NRUPolicy) Ways() int { return p.ways }

// Sets returns the number of sets.
func (p *NRUPolicy) Sets() int { return p.sets }

// Pointer returns the current global replacement pointer (for tests and
// the anatomy example).
func (p *NRUPolicy) Pointer() int { return p.ptr }

// SetPartition installs per-core masks that scope the used-bit reset rule.
// Bits beyond the associativity are dropped, as Victim ignores them.
// Passing nil restores unpartitioned behavior (scope = the whole set).
func (p *NRUPolicy) SetPartition(masks []WayMask) {
	if masks == nil {
		p.masks = nil
		return
	}
	if len(masks) != p.cores {
		panic("plru: SetPartition mask count != cores")
	}
	p.masks = append(p.masks[:0], masks...)
	for i := range p.masks {
		p.masks[i] &= Full(p.ways)
	}
}

// scope returns the set of ways over which the used-bit invariant is
// maintained for the given core.
func (p *NRUPolicy) scope(core int) WayMask {
	if p.masks == nil || core < 0 || core >= len(p.masks) || p.masks[core] == 0 {
		return Full(p.ways)
	}
	return p.masks[core]
}

// Touch sets the used bit of (set, way) and applies the scoped reset rule:
// if every used bit in the scope is now 1, the scope is cleared except the
// accessed line. (If the accessed line is outside the scope — a hit in a
// way the core does not own — the whole scope is cleared.) It never
// allocates.
func (p *NRUPolicy) Touch(set, way, core int) {
	u := p.used[set] | 1<<uint(way)
	if scope := uint64(p.scope(core)); u&scope == scope {
		u &^= scope &^ (1 << uint(way))
	}
	p.used[set] = u
}

// Fill is Touch: NRU keeps no per-line identity, so a fill just sets the
// used bit under the scoped reset rule.
func (p *NRUPolicy) Fill(set, way, core int, sig uint8) { p.Touch(set, way, core) }

// Invalidate clears the used bit of (set, way): the way reads as "not
// recently used", so the victim scan can reclaim it immediately.
func (p *NRUPolicy) Invalidate(set, way int) {
	p.used[set] &^= 1 << uint(way)
}

// Victim picks the first allowed way with used == 0 at or after the global
// replacement pointer, wrapping around; if every allowed way has its bit
// set (possible under partitioning, where the set-wide invariant does not
// cover arbitrary subsets), the allowed ways are cleared first. The global
// pointer then rotates forward one way, as in the T2. Victim never
// allocates.
func (p *NRUPolicy) Victim(set, core int, allowed WayMask) int {
	checkVictimArgs(set, p.sets, p.ways, allowed)
	allowed &= Full(p.ways)
	free := uint64(allowed) &^ p.used[set]
	if free == 0 {
		// This mirrors the scoped reset rule at eviction time.
		p.used[set] &^= uint64(allowed)
		free = uint64(allowed)
	}
	victim := bits.TrailingZeros64(free)
	if late := free >> uint(p.ptr) << uint(p.ptr); late != 0 {
		victim = bits.TrailingZeros64(late)
	}
	p.ptr = (p.ptr + 1) % p.ways
	return victim
}

// Used reports the used bit of (set, way); the NRU profiling logic reads
// these to estimate stack distances.
func (p *NRUPolicy) Used(set, way int) bool { return p.used[set]>>uint(way)&1 != 0 }

// UsedCount returns U — the number of used bits set in the given set —
// which the paper's eSDH estimator consumes.
func (p *NRUPolicy) UsedCount(set int) int { return bits.OnesCount64(p.used[set]) }
