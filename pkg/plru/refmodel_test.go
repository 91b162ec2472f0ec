package plru

import (
	"encoding/binary"
	"math/bits"
)

// Reference models for wordstate_test.go's differential test: BT and NRU
// as they stood before their state became one word per set — a byte per
// BT tree node (with a one-word fast path at 8 ways only) and a bool per
// NRU used bit. The code is unchanged apart from the type names and the
// dropped accessors.

type refBT struct {
	sets, ways, levels int
	tree               []uint8 // sets*(ways-1), heap-indexed per set (slot 0 unused within each set's block of `ways` entries)

	// For 8-way trees the set's whole node block is exactly one 64-bit
	// word, so Touch/Invalidate collapse to a single masked word store
	// instead of a levels-deep loop: clearMask[way] zeroes the three
	// path node bytes and touchMask/invMask[way] write them pointing
	// away from (Touch) or at (Invalidate) the way. Nil for other
	// associativities, which keep the loop.
	clearMask, touchMask, invMask []uint64
}

// newRefBT returns a BT policy. The associativity must be a power of
// two (the tree is complete), as in every hardware BT implementation.
func newRefBT(sets, ways int) *refBT {
	validateGeometry(sets, ways)
	if ways&(ways-1) != 0 {
		panic("plru: BT requires power-of-two associativity")
	}
	p := &refBT{
		sets:   sets,
		ways:   ways,
		levels: bits.Len(uint(ways)) - 1,
		// Allocate `ways` slots per set so heap indices 1..ways-1 map
		// directly; slot 0 of each block is unused.
		tree: make([]uint8, sets*ways),
	}
	if ways == 8 {
		p.clearMask = make([]uint64, ways)
		p.touchMask = make([]uint64, ways)
		p.invMask = make([]uint64, ways)
		for way := 0; way < ways; way++ {
			i := 1
			for d := 0; d < p.levels; d++ {
				dir := p.dirOf(way, d)
				p.clearMask[way] |= 0xFF << (8 * uint(i))
				p.touchMask[way] |= uint64(1-dir) << (8 * uint(i))
				p.invMask[way] |= uint64(dir) << (8 * uint(i))
				i = 2*i + dir
			}
		}
	}
	return p
}

// node returns the tree bit at heap index i of set.
func (p *refBT) node(set, i int) uint8 { return p.tree[set*p.ways+i] }

func (p *refBT) setNode(set, i int, v uint8) { p.tree[set*p.ways+i] = v }

// dirOf returns the branch direction (0 = left, 1 = right) taken at depth
// `depth` on the path from the root to `way`.
func (p *refBT) dirOf(way, depth int) int {
	return (way >> uint(p.levels-1-depth)) & 1
}

// Touch promotes (set, way): every tree bit on the path from the root to
// the way is set to point away from it, making the way maximally recent.
// Only log2(ways) bits change — the paper's Table I(b) "update position"
// cost for BT; for the 8-way tree they change in one masked word store.
func (p *refBT) Touch(set, way, core int) {
	if p.clearMask != nil {
		t := p.tree[set*8 : set*8+8 : set*8+8]
		w := binary.LittleEndian.Uint64(t)
		binary.LittleEndian.PutUint64(t, w&^p.clearMask[way]|p.touchMask[way])
		return
	}
	i := 1
	for d := 0; d < p.levels; d++ {
		dir := p.dirOf(way, d)
		p.setNode(set, i, uint8(1-dir)) // point pseudo-LRU to the other side
		i = 2*i + dir
	}
}

// Fill is Touch: BT keeps no per-line identity, so a new line just turns
// its root path away, like any access.
func (p *refBT) Fill(set, way, core int, sig uint8) { p.Touch(set, way, core) }

// Invalidate points every tree bit on the way's root path toward it —
// the inverse of Touch — so an unmasked victim walk lands exactly on the
// freed way. Only log2(ways) bits change.
func (p *refBT) Invalidate(set, way int) {
	if p.clearMask != nil {
		t := p.tree[set*8 : set*8+8 : set*8+8]
		w := binary.LittleEndian.Uint64(t)
		binary.LittleEndian.PutUint64(t, w&^p.clearMask[way]|p.invMask[way])
		return
	}
	i := 1
	for d := 0; d < p.levels; d++ {
		dir := p.dirOf(way, d)
		p.setNode(set, i, uint8(dir)) // point pseudo-LRU at the freed way
		i = 2*i + dir
	}
}

// Victim walks the tree bits from the root, restricted to the allowed
// mask: at each node it follows the stored bit when both subtrees contain
// allowed ways and otherwise the only viable side.
func (p *refBT) Victim(set, core int, allowed WayMask) int {
	checkVictimArgs(set, p.sets, p.ways, allowed)
	lo, hi := 0, p.ways
	i := 1
	for d := 0; d < p.levels; d++ {
		mid := (lo + hi) / 2
		leftOK := allowed&rangeMask(lo, mid) != 0
		rightOK := allowed&rangeMask(mid, hi) != 0
		var dir int
		switch {
		case leftOK && rightOK:
			dir = int(p.node(set, i))
		case leftOK:
			dir = 0
		default:
			dir = 1
		}
		if dir == 0 {
			hi = mid
		} else {
			lo = mid
		}
		i = 2*i + dir
	}
	return lo
}

// VictimForced walks the tree with the paper's per-level force vectors
// (Figure 5 truth table): at depth d, up[d] forces the left ("upper")
// subtree, down[d] forces the right ("lower") subtree, and otherwise the
// stored bit decides. up[d] and down[d] must not both be set.
func (p *refBT) VictimForced(set int, up, down []bool) int {
	if len(up) != p.levels || len(down) != p.levels {
		panic("plru: force vectors must have log2(ways) entries")
	}
	i := 1
	way := 0
	for d := 0; d < p.levels; d++ {
		if up[d] && down[d] {
			panic("plru: up and down both forced at level " + itoa(d))
		}
		var dir int
		switch {
		case up[d]:
			dir = 0
		case down[d]:
			dir = 1
		default:
			dir = int(p.node(set, i))
		}
		way = way<<1 | dir
		i = 2*i + dir
	}
	return way
}

// PathBits returns the current tree bits along the path from the root to
// `way`, packed MSB-first (root bit highest). The BT profiling logic XORs
// these against the way's ID bits.
func (p *refBT) PathBits(set, way int) int {
	v := 0
	i := 1
	for d := 0; d < p.levels; d++ {
		v = v<<1 | int(p.node(set, i))
		i = 2*i + p.dirOf(way, d)
	}
	return v
}

// IDBits returns the identifier bits of `way`: the tree-path bit values
// that would make the way the pseudo-LRU victim. With our bit convention
// these are simply the way's binary digits MSB-first, which is the paper's
// "simple decoder" (Figure 4(c)) — a wiring permutation, no storage.
func (p *refBT) IDBits(way int) int { return way }

// EstStackPos implements the paper's BT stack-position estimator
// (Figure 4(b)): ways − (IDBits XOR PathBits). The result is in [1, ways]:
// ways when the line is exactly the pseudo-LRU victim and 1 when every
// path bit points away from it (just accessed).
func (p *refBT) EstStackPos(set, way int) int {
	return p.ways - (p.IDBits(way) ^ p.PathBits(set, way))
}

type refNRU struct {
	sets, ways, cores int
	used              []bool // sets*ways
	ptr               int    // cache-global replacement pointer (way index)
	masks             []WayMask
}

// newRefNRU returns an NRU policy for the given geometry.
func newRefNRU(sets, ways, cores int) *refNRU {
	validateGeometry(sets, ways)
	if cores <= 0 {
		cores = 1
	}
	return &refNRU{
		sets:  sets,
		ways:  ways,
		cores: cores,
		used:  make([]bool, sets*ways),
	}
}

// Pointer returns the current global replacement pointer (for tests and
// the anatomy example).
func (p *refNRU) Pointer() int { return p.ptr }

// SetPartition installs per-core masks that scope the used-bit reset rule.
// Passing nil restores unpartitioned behavior (scope = the whole set).
func (p *refNRU) SetPartition(masks []WayMask) {
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
func (p *refNRU) scope(core int) WayMask {
	if p.masks == nil || core < 0 || core >= len(p.masks) || p.masks[core] == 0 {
		return Full(p.ways)
	}
	return p.masks[core]
}

// Touch sets the used bit of (set, way) and applies the scoped reset rule.
// It never allocates.
func (p *refNRU) Touch(set, way, core int) {
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
func (p *refNRU) Fill(set, way, core int, sig uint8) { p.Touch(set, way, core) }

// Invalidate clears the used bit of (set, way): the way reads as "not
// recently used", so the victim scan can reclaim it immediately.
func (p *refNRU) Invalidate(set, way int) {
	p.used[set*p.ways+way] = false
}

// Victim scans from the global replacement pointer for the first allowed
// way with used == 0; if every allowed way has its bit set (possible under
// partitioning, where the set-wide invariant does not cover arbitrary
// subsets), the allowed ways are cleared first. The global pointer then
// rotates forward one way, as in the T2. Victim never allocates.
func (p *refNRU) Victim(set, core int, allowed WayMask) int {
	checkVictimArgs(set, p.sets, p.ways, allowed)
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
func (p *refNRU) scan(base int, allowed WayMask) int {
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
func (p *refNRU) Used(set, way int) bool { return p.used[set*p.ways+way] }

// UsedCount returns U — the number of used bits set in the given set —
// which the paper's eSDH estimator consumes.
func (p *refNRU) UsedCount(set int) int {
	base := set * p.ways
	n := 0
	for w := 0; w < p.ways; w++ {
		if p.used[base+w] {
			n++
		}
	}
	return n
}
