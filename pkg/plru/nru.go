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
	used              []bool // sets*ways
	ptr               int    // cache-global replacement pointer (way index)
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
		used:  make([]bool, sets*ways),
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
}

// scope returns the set of ways over which the used-bit invariant is
// maintained for the given core.
func (p *NRUPolicy) scope(core int) WayMask {
	if p.masks == nil || core < 0 || core >= len(p.masks) || p.masks[core] == 0 {
		return Full(p.ways)
	}
	return p.masks[core]
}

// Touch sets the used bit of (set, way) and applies the scoped reset rule.
// It never allocates.
func (p *NRUPolicy) Touch(set, way, core int) {
	base := set * p.ways
	p.used[base+way] = true
	scope := p.scope(core)
	// If every used bit in the scope is now 1, clear the scope except the
	// accessed line. (If the accessed line is outside the scope — a hit in
	// a way the core does not own — the whole scope is cleared.)
	all := true
	for v := uint64(scope); v != 0; {
		w := bits.TrailingZeros64(v)
		v &^= 1 << uint(w)
		if !p.used[base+w] {
			all = false
			break
		}
	}
	if all {
		for v := uint64(scope); v != 0; {
			w := bits.TrailingZeros64(v)
			v &^= 1 << uint(w)
			if w != way {
				p.used[base+w] = false
			}
		}
	}
}

// Fill is Touch: NRU keeps no per-line identity, so a fill just sets the
// used bit under the scoped reset rule.
func (p *NRUPolicy) Fill(set, way, core int, sig uint8) { p.Touch(set, way, core) }

// Invalidate clears the used bit of (set, way): the way reads as "not
// recently used", so the victim scan can reclaim it immediately.
func (p *NRUPolicy) Invalidate(set, way int) {
	p.used[set*p.ways+way] = false
}

// Victim scans from the global replacement pointer for the first allowed
// way with used == 0; if every allowed way has its bit set (possible under
// partitioning, where the set-wide invariant does not cover arbitrary
// subsets), the allowed ways are cleared first. The global pointer then
// rotates forward one way, as in the T2. Victim never allocates.
func (p *NRUPolicy) Victim(set, core int, allowed WayMask) int {
	checkVictimArgs(p, set, allowed)
	base := set * p.ways
	victim := p.scan(base, allowed)
	if victim < 0 {
		// No allowed way had used == 0: clear the allowed subset and
		// retake. This mirrors the scoped reset rule at eviction time.
		for v := uint64(allowed) & uint64(Full(p.ways)); v != 0; {
			w := bits.TrailingZeros64(v)
			v &^= 1 << uint(w)
			p.used[base+w] = false
		}
		victim = p.scan(base, allowed)
	}
	p.ptr = (p.ptr + 1) % p.ways
	return victim
}

// scan looks for the first allowed way with used == 0, starting at the
// global pointer and rotating forward.
func (p *NRUPolicy) scan(base int, allowed WayMask) int {
	for k := 0; k < p.ways; k++ {
		w := (p.ptr + k) % p.ways
		if allowed.Has(w) && !p.used[base+w] {
			return w
		}
	}
	return -1
}

// Used reports the used bit of (set, way); the NRU profiling logic reads
// these to estimate stack distances.
func (p *NRUPolicy) Used(set, way int) bool { return p.used[set*p.ways+way] }

// UsedCount returns U — the number of used bits set in the given set —
// which the paper's eSDH estimator consumes.
func (p *NRUPolicy) UsedCount(set int) int {
	base := set * p.ways
	n := 0
	for w := 0; w < p.ways; w++ {
		if p.used[base+w] {
			n++
		}
	}
	return n
}
