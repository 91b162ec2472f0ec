package plru_test

import (
	"math/bits"
	"testing"

	"repro/internal/xrand"
	"repro/pkg/cpapart"
	"repro/pkg/plru"
)

// protectedWays is how many of a block's most recently touched distinct
// ways the policy can never pick as the victim. It is the policy's
// minimum life span minus one (Kahlen & Reineke, arXiv:2503.16588; mls
// counts the accesses a just-touched line is guaranteed to survive, the
// missing access that triggers the eviction included): mls is m for LRU,
// log2(m)+1 for tree-PLRU and 2 for NRU, so at the moment Victim is asked
// LRU protects m−1 ways, BT log2(m), and NRU the last-touched one. A
// one-way block protects nothing: its only way is the victim.
func protectedWays(kind plru.Kind, m int) int {
	switch kind {
	case plru.LRU:
		return m - 1
	case plru.BT:
		return bits.Len(uint(m)) - 1
	default: // NRU
		return min(1, m-1)
	}
}

// buddySizes splits `ways` into a random multiset of powers of two.
func buddySizes(rng *xrand.RNG, ways int) []int {
	if ways == 1 || rng.Intn(3) == 0 {
		return []int{ways}
	}
	return append(buddySizes(rng, ways/2), buddySizes(rng, ways/2)...)
}

// TestVictimSparesRecentWaysOfAlignedBlock pins the guarantee the paper's
// BT scheme rests on (ROADMAP 4(c)): under the full mask, and under every
// buddy-aligned block cpapart.BuddyLayout produces, Victim never returns
// one of the block's protectedWays most recently touched ways — whatever
// the other blocks' owners touch in between. NRU gets its masks through
// SetPartition, as core.System and cpacache install them, because its
// reset rule has to be scoped to the block for the bound to hold.
//
// The bound does not hold for BT under an arbitrary non-aligned mask
// (see TestBTNonAlignedMaskEvictsMostRecent), which is exactly why the
// paper restricts BT partitions to aligned sub-trees.
func TestVictimSparesRecentWaysOfAlignedBlock(t *testing.T) {
	rng := xrand.New(20100419)
	for _, ways := range []int{2, 4, 8, 16, 32} {
		layouts := [][]int{{ways}} // the full mask
		for i := 0; i < 6; i++ {
			layouts = append(layouts, buddySizes(rng, ways))
		}
		for _, sizes := range layouts {
			blocks, err := cpapart.BuddyLayout(sizes, ways)
			if err != nil {
				t.Fatal(err)
			}
			masks := make([]plru.WayMask, len(blocks))
			for b, blk := range blocks {
				masks[b] = blk.Mask()
			}
			for _, kind := range []plru.Kind{plru.LRU, plru.NRU, plru.BT} {
				const set = 1
				p := plru.New(kind, 2, ways, len(blocks), 0)
				p.SetPartition(masks)
				recent := make([][]int, len(blocks)) // per block, most recent first
				touch := func(b, way int) {
					p.Touch(set, way, b)
					r := recent[b]
					for i, w := range r {
						if w == way {
							r = append(r[:i], r[i+1:]...)
							break
						}
					}
					recent[b] = append([]int{way}, r...)
				}
				for step := 0; step < 400; step++ {
					b := rng.Intn(len(blocks))
					if rng.Intn(3) != 0 {
						touch(b, blocks[b].Lo+rng.Intn(blocks[b].Size))
						continue
					}
					v := p.Victim(set, b, masks[b])
					if !masks[b].Has(v) {
						t.Fatalf("%v ways=%d layout=%v block %d: victim %d outside %v", kind, ways, sizes, b, v, masks[b])
					}
					safe := recent[b][:min(protectedWays(kind, blocks[b].Size), len(recent[b]))]
					for rank, w := range safe {
						if w == v {
							t.Fatalf("%v ways=%d layout=%v block %v step %d: victim %d is the block's #%d most recently touched way (protected: %d)",
								kind, ways, sizes, blocks[b], step, v, rank+1, len(safe))
						}
					}
					touch(b, v) // the fill
				}
			}
		}
	}
}

// TestBTProtectionBoundIsTight shows log2(m) cannot be raised to
// log2(m)+1: in a 4-way tree, after touching 0, 1, 2 the victim is way 0,
// the third most recently touched.
func TestBTProtectionBoundIsTight(t *testing.T) {
	p := plru.NewBTPolicy(1, 4)
	for _, w := range []int{0, 1, 2} {
		p.Touch(0, w, 0)
	}
	if v := p.Victim(0, 0, plru.Full(4)); v != 0 {
		t.Fatalf("victim %d, want 0", v)
	}
}

// TestBTNonAlignedMaskEvictsMostRecent is the counter-example for masks
// that are not aligned sub-trees: in an 8-way tree with mask {0,4}, touch
// 4 then 1 — the root now points at 4's half, where 4 is the only allowed
// way, so the mask's most recently touched way is evicted.
func TestBTNonAlignedMaskEvictsMostRecent(t *testing.T) {
	p := plru.NewBTPolicy(1, 8)
	p.Touch(0, 4, 0)
	p.Touch(0, 1, 0)
	if v := p.Victim(0, 0, plru.WayMask(0).With(0).With(4)); v != 4 {
		t.Fatalf("victim %d, want 4", v)
	}
}

// btProtection explores every state a one-set BT of the given
// associativity reaches from reset when any way may be touched next. A
// state is the tree bits plus the recency order of mask's ways (touches
// outside the mask move the tree but not that order). It returns the
// exact number of mask's most recently touched ways that Victim never
// returns from any reachable state, and how many states there are.
func btProtection(t *testing.T, ways int, mask plru.WayMask) (protected, states int) {
	t.Helper()
	// An order packs way+1 per nibble, most recent in the low nibble.
	touchOrder := func(order uint64, way int) uint64 {
		out, shift := uint64(0), uint(4)
		for o := order; o != 0; o >>= 4 {
			if int(o&15) != way+1 {
				out |= o & 15 << shift
				shift += 4
			}
		}
		return out | uint64(way+1)
	}
	type state struct{ tree, order uint64 }
	p := plru.NewBTPolicy(1, ways)
	seen := map[state]bool{{}: true}
	queue := []state{{}}
	protected = mask.Count()
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		p.SetTreeBits(0, s.tree)
		v := p.Victim(0, 0, mask)
		if !mask.Has(v) {
			t.Fatalf("ways=%d mask=%v: victim %d outside the mask", ways, mask, v)
		}
		for rank, o := 0, s.order; o != 0; rank, o = rank+1, o>>4 {
			if int(o&15) == v+1 {
				protected = min(protected, rank)
			}
		}
		for w := 0; w < ways; w++ {
			p.SetTreeBits(0, s.tree)
			p.Touch(0, w, 0)
			next := state{p.TreeBits(0), s.order}
			if mask.Has(w) {
				next.order = touchOrder(s.order, w)
			}
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	return protected, len(seen)
}

// TestBTProtectionUnderContiguousMasks computes, exhaustively, the
// protection every contiguous mask [lo,hi) gives a tenant under BT at 4
// and 8 ways. Aligned blocks keep exactly protectedWays; unaligned masks
// keep less, and seven 8-way masks keep nothing at all. That is why
// cpacache lays out all-power-of-two BT quotas on buddy blocks rather
// than contiguously: for quotas [1 4 2 1] the contiguous [1,5) protects
// 0 ways where the buddy block [0,4) protects 2.
func TestBTProtectionUnderContiguousMasks(t *testing.T) {
	unaligned := map[int]map[[2]int]int{
		4: {{1, 3}: 0, {0, 3}: 1, {1, 4}: 1},
		8: {
			{1, 3}: 0, {3, 5}: 0, {5, 7}: 0, {2, 5}: 0, {3, 6}: 0, {1, 5}: 0, {3, 7}: 0,
			{0, 3}: 1, {1, 4}: 1, {4, 7}: 1, {5, 8}: 1, {2, 6}: 1, {1, 7}: 1,
			{0, 5}: 1, {1, 6}: 1, {2, 7}: 1, {3, 8}: 1,
			{0, 6}: 2, {2, 8}: 2, {0, 7}: 2, {1, 8}: 2,
		},
	}
	for _, ways := range []int{4, 8} {
		checked := 0
		for lo := 0; lo < ways; lo++ {
			for hi := lo + 1; hi <= ways; hi++ {
				mask := plru.Full(hi) &^ plru.Full(lo)
				got, states := btProtection(t, ways, mask)
				m := hi - lo
				want, ok := unaligned[ways][[2]int{lo, hi}]
				if m&(m-1) == 0 && lo%m == 0 {
					want, ok = protectedWays(plru.BT, m), true
				} else {
					checked++
				}
				if !ok {
					t.Fatalf("ways=%d [%d,%d): no pinned protection (got %d)", ways, lo, hi, got)
				}
				if got != want {
					t.Errorf("ways=%d [%d,%d): protection %d, want %d (%d states)", ways, lo, hi, got, want, states)
				}
				if ways == 8 && m == 8 && states != 109601 {
					t.Errorf("8-way full mask: %d reachable states, want 109601", states)
				}
			}
		}
		if checked != len(unaligned[ways]) {
			t.Errorf("ways=%d: %d unaligned masks explored, %d pinned", ways, checked, len(unaligned[ways]))
		}
	}
}
