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
