package plru

import (
	"math/bits"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestBTRequiresPowerOfTwoWays(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 6-way BT")
		}
	}()
	NewBTPolicy(1, 6)
}

func TestBTTouchedLineIsNotVictim(t *testing.T) {
	for _, ways := range []int{2, 4, 8, 16} {
		p := NewBTPolicy(1, ways)
		for w := 0; w < ways; w++ {
			p.Touch(0, w, 0)
			if v := p.Victim(0, 0, Full(ways)); v == w {
				t.Fatalf("%d-way: way %d is victim immediately after touch", ways, w)
			}
		}
	}
}

func TestBTVictimCyclesThroughAllWays(t *testing.T) {
	// Fill-and-evict with touches on fill visits every way before
	// revisiting any (pseudo-LRU covers the whole set).
	const ways = 8
	p := NewBTPolicy(1, ways)
	seen := make(map[int]bool)
	for i := 0; i < ways; i++ {
		v := p.Victim(0, 0, Full(ways))
		if seen[v] {
			t.Fatalf("way %d evicted twice within one round", v)
		}
		seen[v] = true
		p.Touch(0, v, 0)
	}
	if len(seen) != ways {
		t.Fatalf("only %d distinct victims in one round", len(seen))
	}
}

func TestBTEstStackPosBounds(t *testing.T) {
	const ways = 16
	p := NewBTPolicy(4, ways)
	rng := xrand.New(17)
	for i := 0; i < 2000; i++ {
		set := rng.Intn(4)
		w := rng.Intn(ways)
		p.Touch(set, w, 0)
		for probe := 0; probe < ways; probe++ {
			est := p.EstStackPos(set, probe)
			if est < 1 || est > ways {
				t.Fatalf("EstStackPos = %d out of [1,%d]", est, ways)
			}
		}
	}
}

func TestBTEstimatorExtremes(t *testing.T) {
	const ways = 16
	p := NewBTPolicy(1, ways)
	w := 5
	p.Touch(0, w, 0)
	if est := p.EstStackPos(0, w); est != 1 {
		t.Fatalf("just-touched line estimate = %d, want 1 (MRU)", est)
	}
	v := p.Victim(0, 0, Full(ways))
	if est := p.EstStackPos(0, v); est != ways {
		t.Fatalf("victim line estimate = %d, want %d (LRU)", est, ways)
	}
}

func TestBTEstimatorPaperExample(t *testing.T) {
	// Paper Figure 4(b): 4-way, line D (the highest way) has ID bits 11.
	// With tree bits such that the path reads 10, the estimate is
	// 4 - (11 XOR 10) = 4 - 1 = 3.
	p := NewBTPolicy(1, 4)
	// Way 3's path: root (heap 1, bit 0), right child (heap 3, bit 2).
	// Set root=1, node3=0 => PathBits(3) = 0b10.
	p.SetTreeBits(0, 0b001)
	if got := p.PathBits(0, 3); got != 0b10 {
		t.Fatalf("PathBits = %b, want 10", got)
	}
	if got := p.IDBits(3); got != 0b11 {
		t.Fatalf("IDBits = %b, want 11", got)
	}
	if got := p.EstStackPos(0, 3); got != 3 {
		t.Fatalf("EstStackPos = %d, want 3", got)
	}
}

func TestBTVictimHasEstimateWays(t *testing.T) {
	// Property: the unconstrained victim is exactly the way whose
	// estimated stack position equals the associativity (XOR == 0).
	f := func(ops []uint8) bool {
		p := NewBTPolicy(1, 8)
		for _, op := range ops {
			p.Touch(0, int(op)%8, 0)
		}
		v := p.Victim(0, 0, Full(8))
		return p.EstStackPos(0, v) == 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBTEstimatesAreDistinctPerSubtreeDepth(t *testing.T) {
	// The estimator maps the 2^levels path-XOR values onto [1, ways];
	// across all ways of a set, values may repeat (the paper's Figure 4(d)
	// limitation), but each way's estimate must be consistent with its
	// path bits. Sanity-check the mapping is total.
	p := NewBTPolicy(1, 16)
	seen := make(map[int]bool)
	for w := 0; w < 16; w++ {
		seen[p.EstStackPos(0, w)] = true
	}
	if len(seen) == 0 {
		t.Fatal("no estimates produced")
	}
}

func TestBTVictimRespectsMask(t *testing.T) {
	p := NewBTPolicy(1, 16)
	rng := xrand.New(23)
	for i := 0; i < 500; i++ {
		mask := WayMask(rng.Uint64()) & Full(16)
		if mask == 0 {
			mask = Full(16)
		}
		v := p.Victim(0, 0, mask)
		if !mask.Has(v) {
			t.Fatalf("victim %d outside mask %v", v, mask)
		}
		p.Touch(0, rng.Intn(16), 0)
	}
}

func TestBTVictimForcedMatchesTruthTable(t *testing.T) {
	// Figure 5: up forces the upper (left) subtree regardless of the BT
	// bit; down forces the lower (right); neither defers to the bit.
	p := NewBTPolicy(1, 4)
	p.SetTreeBits(0, 0b101) // root (bit 0) says right, node 2 left, node 3 right

	up := []bool{true, false}
	down := []bool{false, false}
	// Root forced left; node 2 bit (0) says left -> way 0.
	if v := p.VictimForced(0, up, down); v != 0 {
		t.Fatalf("forced-up victim = %d, want 0", v)
	}

	up = []bool{false, false}
	down = []bool{false, true}
	// Root follows bit (right); level-1 forced right -> way 3.
	if v := p.VictimForced(0, up, down); v != 3 {
		t.Fatalf("forced-down victim = %d, want 3", v)
	}

	up = []bool{false, false}
	down = []bool{false, false}
	// No forcing: root right (bit 1), node 3 bit 1 -> way 3.
	if v := p.VictimForced(0, up, down); v != 3 {
		t.Fatalf("unforced victim = %d, want 3", v)
	}
}

func TestBTVictimForcedPanicsOnConflict(t *testing.T) {
	p := NewBTPolicy(1, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic when up and down both forced")
		}
	}()
	p.VictimForced(0, []bool{true, false}, []bool{true, false})
}

// forceVectorsForBlock builds up/down vectors that confine victim search to
// the aligned block [lo, lo+size) of a `ways`-way set, mirroring what the
// buddy partitioner produces.
func forceVectorsForBlock(ways, lo, size int) (up, down []bool) {
	levels := 0
	for 1<<uint(levels) < ways {
		levels++
	}
	up = make([]bool, levels)
	down = make([]bool, levels)
	span := ways
	base := 0
	for d := 0; d < levels && span > size; d++ {
		mid := base + span/2
		if lo < mid {
			up[d] = true
		} else {
			down[d] = true
			base = mid
		}
		span /= 2
	}
	return up, down
}

func TestBTForcedAgreesWithMaskOnAlignedBlocks(t *testing.T) {
	// For every aligned power-of-two block, VictimForced and Victim with
	// the corresponding mask must select the same way, whatever the tree
	// state. This ties the paper's up/down enforcement to the generic
	// mask enforcement used elsewhere.
	const ways = 16
	rng := xrand.New(99)
	p := NewBTPolicy(1, ways)
	for trial := 0; trial < 300; trial++ {
		p.Touch(0, rng.Intn(ways), 0)
		for size := 1; size <= ways; size *= 2 {
			for lo := 0; lo < ways; lo += size {
				up, down := forceVectorsForBlock(ways, lo, size)
				mask := rangeMask(lo, lo+size)
				vf := p.VictimForced(0, up, down)
				vm := p.Victim(0, 0, mask)
				if vf != vm {
					t.Fatalf("block [%d,%d): forced victim %d != masked victim %d",
						lo, lo+size, vf, vm)
				}
				if !mask.Has(vf) {
					t.Fatalf("forced victim %d escaped block [%d,%d)", vf, lo, lo+size)
				}
			}
		}
	}
}

func TestBTOnlyLog2BitsChangePerTouch(t *testing.T) {
	// Table I(b): BT updates exactly log2(A) bits per access.
	const ways = 16
	p := NewBTPolicy(1, ways)
	rng := xrand.New(5)
	for i := 0; i < 200; i++ {
		before := p.tree[0]
		p.Touch(0, rng.Intn(ways), 0)
		if changed := bits.OnesCount64(before ^ p.tree[0]); changed > 4 {
			t.Fatalf("touch changed %d bits, max is log2(16)=4", changed)
		}
	}
}

func TestBTPathBitsRoundTrip(t *testing.T) {
	// After touching way w, PathBits(w) must be the complement of IDBits
	// within levels bits (every bit points away), giving estimate 1.
	const ways = 16
	p := NewBTPolicy(1, ways)
	for w := 0; w < ways; w++ {
		p.Touch(0, w, 0)
		want := (ways - 1) ^ w // complement of ID bits in 4 bits
		if got := p.PathBits(0, w); got != want {
			t.Fatalf("way %d: PathBits = %04b, want %04b", w, got, want)
		}
	}
}
