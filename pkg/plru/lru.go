package plru

// LRUPolicy implements true Least Recently Used replacement with exact
// per-line stack positions. It is the reference policy the paper compares
// against, and also serves as the profiling substrate for the classic
// stack-distance histogram: Dist reports the 1-based LRU stack position of
// a line before it is touched, which is exactly what the SDH records.
//
// Representation: one age counter per line; age 0 is the MRU position and
// age ways-1 the LRU position. Ages within a set are always a permutation
// of [0, ways).
type LRUPolicy struct {
	sets, ways int
	age        []uint8 // sets*ways, age[set*ways+way]
}

// NewLRUPolicy returns an LRU policy for the given geometry. All lines
// start with a well-defined arbitrary recency order (way w has age w).
func NewLRUPolicy(sets, ways int) *LRUPolicy {
	validateGeometry(sets, ways)
	if ways > 256 {
		panic("plru: LRU supports at most 256 ways")
	}
	p := &LRUPolicy{sets: sets, ways: ways, age: make([]uint8, sets*ways)}
	for s := 0; s < sets; s++ {
		for w := 0; w < ways; w++ {
			p.age[s*ways+w] = uint8(w)
		}
	}
	return p
}

// Kind returns LRU.
func (p *LRUPolicy) Kind() Kind { return LRU }

// Ways returns the associativity.
func (p *LRUPolicy) Ways() int { return p.ways }

// Sets returns the number of sets.
func (p *LRUPolicy) Sets() int { return p.sets }

// SetPartition is a no-op for LRU: hits never consult the partition and
// victim scoping is entirely expressed through the Victim mask.
func (p *LRUPolicy) SetPartition(masks []WayMask) {}

// Touch promotes way to the MRU position of set, aging every line that was
// more recent than it. This is the paper's worst-case A*log2(A)-bit update.
func (p *LRUPolicy) Touch(set, way, core int) {
	base := set * p.ways
	old := p.age[base+way]
	if old == 0 {
		return // already MRU: nothing is more recent
	}
	for w := 0; w < p.ways; w++ {
		if a := p.age[base+w]; a < old {
			p.age[base+w] = a + 1
		}
	}
	p.age[base+way] = 0
}

// Fill is Touch: LRU keeps no per-line identity, so a new line simply
// becomes MRU.
func (p *LRUPolicy) Fill(set, way, core int, sig uint8) { p.Touch(set, way, core) }

// Invalidate demotes way to the LRU position of set, promoting every line
// that was older than it by one step; the freed way becomes the unmasked
// victim until it is touched again.
func (p *LRUPolicy) Invalidate(set, way int) {
	base := set * p.ways
	old := p.age[base+way]
	for w := 0; w < p.ways; w++ {
		if a := p.age[base+w]; a > old {
			p.age[base+w] = a - 1
		}
	}
	p.age[base+way] = uint8(p.ways - 1)
}

// Victim returns the least recently used way within the allowed mask.
func (p *LRUPolicy) Victim(set, core int, allowed WayMask) int {
	checkVictimArgs(set, p.sets, p.ways, allowed)
	base := set * p.ways
	best, bestAge := -1, -1
	for w := 0; w < p.ways; w++ {
		if !allowed.Has(w) {
			continue
		}
		if a := int(p.age[base+w]); a > bestAge {
			best, bestAge = w, a
		}
	}
	return best
}

// Dist returns the 1-based LRU stack position of way in set: 1 means MRU,
// Ways() means LRU. Profiling reads this before Touch to obtain the access's
// stack distance.
func (p *LRUPolicy) Dist(set, way int) int {
	return int(p.age[set*p.ways+way]) + 1
}

// order returns the ways of set ordered MRU first. Exposed for tests.
func (p *LRUPolicy) order(set int) []int {
	out := make([]int, p.ways)
	base := set * p.ways
	for w := 0; w < p.ways; w++ {
		out[p.age[base+w]] = w
	}
	return out
}
