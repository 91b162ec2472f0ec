package plru

import "math/bits"

// BTPolicy implements Binary Tree pseudo-LRU (paper §III-B, the IBM
// scheme): each set carries ways-1 tree bits arranged as a complete binary
// tree over the ways. Each node bit records which subtree holds the
// pseudo-LRU candidate; an access flips the bits on its path to point away
// from the accessed line, and victim selection walks the bits from the
// root.
//
// Bit convention: bit == 0 means the pseudo-LRU line is in the LEFT (lower
// way indices) subtree, bit == 1 the RIGHT subtree. The paper's figures use
// the mirrored encoding ("upper"/"lower" sub-tree); the two are isomorphic
// and the ID-XOR-SUB profiling identity holds identically.
//
// Partitioning: the paper extends BT with per-core up/down force vectors,
// one bit pair per tree level, that override the stored bit during victim
// search (VictimForced, with the Figure 5 truth table). Victim with an
// arbitrary WayMask is also provided; for the aligned power-of-two masks
// produced by the buddy partitioner the two mechanisms select identical
// victims (a property covered by tests).
type BTPolicy struct {
	sets, ways, levels int
	// tree holds one word per set: heap node i (1..ways-1, root 1,
	// children 2i and 2i+1) is bit i-1, so a set's state is exactly the
	// ways-1 bits Table I(a) prices.
	tree []uint64
	// path[way] selects the levels node bits on the way's root path and
	// away[way] is the value Touch writes there: each bit points to the
	// other side of the way. Invalidate writes path&^away, pointing each
	// bit at the way.
	path, away []uint64
}

// NewBTPolicy returns a BT policy. The associativity must be a power of
// two (the tree is complete), as in every hardware BT implementation.
func NewBTPolicy(sets, ways int) *BTPolicy {
	validateGeometry(sets, ways)
	if ways&(ways-1) != 0 {
		panic("plru: BT requires power-of-two associativity")
	}
	p := &BTPolicy{
		sets:   sets,
		ways:   ways,
		levels: bits.Len(uint(ways)) - 1,
		tree:   make([]uint64, sets),
		path:   make([]uint64, ways),
		away:   make([]uint64, ways),
	}
	for way := 0; way < ways; way++ {
		i := 1
		for d := 0; d < p.levels; d++ {
			dir := p.dirOf(way, d)
			p.path[way] |= 1 << uint(i-1)
			p.away[way] |= uint64(1-dir) << uint(i-1)
			i = 2*i + dir
		}
	}
	return p
}

// Kind returns BT.
func (p *BTPolicy) Kind() Kind { return BT }

// Ways returns the associativity.
func (p *BTPolicy) Ways() int { return p.ways }

// Sets returns the number of sets.
func (p *BTPolicy) Sets() int { return p.sets }

// Levels returns log2(ways), the number of tree levels (and the length of
// the up/down force vectors).
func (p *BTPolicy) Levels() int { return p.levels }

// SetPartition is a no-op: BT partition enforcement is expressed through
// VictimForced / the Victim mask, and hits update the tree identically
// with or without partitioning.
func (p *BTPolicy) SetPartition(masks []WayMask) {}

// dirOf returns the branch direction (0 = left, 1 = right) taken at depth
// `depth` on the path from the root to `way`.
func (p *BTPolicy) dirOf(way, depth int) int {
	return (way >> uint(p.levels-1-depth)) & 1
}

// Touch promotes (set, way): every tree bit on the path from the root to
// the way is set to point away from it, making the way maximally recent.
// Only log2(ways) bits change — the paper's Table I(b) "update position"
// cost for BT — in one masked word store.
func (p *BTPolicy) Touch(set, way, core int) {
	p.tree[set] = p.tree[set]&^p.path[way] | p.away[way]
}

// Fill is Touch: BT keeps no per-line identity, so a new line just turns
// its root path away, like any access.
func (p *BTPolicy) Fill(set, way, core int, sig uint8) { p.Touch(set, way, core) }

// Invalidate points every tree bit on the way's root path toward it —
// the inverse of Touch — so an unmasked victim walk lands exactly on the
// freed way. Only log2(ways) bits change.
func (p *BTPolicy) Invalidate(set, way int) {
	p.tree[set] = p.tree[set]&^p.path[way] | p.path[way]&^p.away[way]
}

// Victim walks the tree bits from the root, restricted to the allowed
// mask: at each node it follows the stored bit when both subtrees contain
// allowed ways and otherwise the only viable side.
func (p *BTPolicy) Victim(set, core int, allowed WayMask) int {
	checkVictimArgs(set, p.sets, p.ways, allowed)
	t := p.tree[set]
	lo, hi := 0, p.ways
	i := 1
	for d := 0; d < p.levels; d++ {
		mid := (lo + hi) / 2
		leftOK := allowed&rangeMask(lo, mid) != 0
		rightOK := allowed&rangeMask(mid, hi) != 0
		var dir int
		switch {
		case leftOK && rightOK:
			dir = int(t >> uint(i-1) & 1)
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
func (p *BTPolicy) VictimForced(set int, up, down []bool) int {
	if len(up) != p.levels || len(down) != p.levels {
		panic("plru: force vectors must have log2(ways) entries")
	}
	t := p.tree[set]
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
			dir = int(t >> uint(i-1) & 1)
		}
		way = way<<1 | dir
		i = 2*i + dir
	}
	return way
}

// PathBits returns the current tree bits along the path from the root to
// `way`, packed MSB-first (root bit highest). The BT profiling logic XORs
// these against the way's ID bits.
func (p *BTPolicy) PathBits(set, way int) int {
	t := p.tree[set]
	v := 0
	i := 1
	for d := 0; d < p.levels; d++ {
		v = v<<1 | int(t>>uint(i-1)&1)
		i = 2*i + p.dirOf(way, d)
	}
	return v
}

// IDBits returns the identifier bits of `way`: the tree-path bit values
// that would make the way the pseudo-LRU victim. With our bit convention
// these are simply the way's binary digits MSB-first, which is the paper's
// "simple decoder" (Figure 4(c)) — a wiring permutation, no storage.
func (p *BTPolicy) IDBits(way int) int { return way }

// EstStackPos implements the paper's BT stack-position estimator
// (Figure 4(b)): ways − (IDBits XOR PathBits). The result is in [1, ways]:
// ways when the line is exactly the pseudo-LRU victim and 1 when every
// path bit points away from it (just accessed).
func (p *BTPolicy) EstStackPos(set, way int) int {
	return p.ways - (p.IDBits(way) ^ p.PathBits(set, way))
}

// rangeMask returns the mask of ways in [lo, hi).
func rangeMask(lo, hi int) WayMask {
	return Full(hi) &^ Full(lo)
}

func itoa(d int) string {
	if d == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for d > 0 {
		i--
		buf[i] = byte('0' + d%10)
		d /= 10
	}
	return string(buf[i:])
}
