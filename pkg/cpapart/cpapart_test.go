package cpapart

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
	"repro/pkg/plru"
)

// syntheticCurve builds a non-increasing miss curve for `ways`+1 entries
// from a total and a decay knob.
func syntheticCurve(rng *xrand.RNG, ways int) []uint64 {
	c := make([]uint64, ways+1)
	cur := uint64(1000 + rng.Intn(100000))
	for w := 0; w <= ways; w++ {
		c[w] = cur
		drop := uint64(float64(cur) * (0.05 + rng.Float64()*0.4))
		if drop > cur {
			drop = cur
		}
		cur -= drop
	}
	return c
}

// bruteForceBest enumerates all allocations and returns the minimum total
// misses (reference for the DP).
func bruteForceBest(curves [][]uint64, ways int) uint64 {
	n := len(curves)
	best := ^uint64(0)
	var rec func(t, left int, acc uint64)
	rec = func(t, left int, acc uint64) {
		if t == n-1 {
			if left >= 1 {
				if v := acc + curves[t][left]; v < best {
					best = v
				}
			}
			return
		}
		for a := 1; a <= left-(n-1-t); a++ {
			rec(t+1, left-a, acc+curves[t][a])
		}
	}
	rec(0, ways, 0)
	return best
}

func TestMinMissesMatchesBruteForce(t *testing.T) {
	rng := xrand.New(41)
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(3) // 2..4 threads
		ways := 8
		curves := make([][]uint64, n)
		for i := range curves {
			curves[i] = syntheticCurve(rng, ways)
		}
		alloc := MinMisses{}.Allocate(curves, ways)
		if !alloc.Valid(ways) {
			t.Fatalf("trial %d: invalid allocation %v", trial, alloc)
		}
		got := TotalMisses(curves, alloc)
		want := bruteForceBest(curves, ways)
		if got != want {
			t.Fatalf("trial %d: DP total %d != brute force %d (alloc %v)",
				trial, got, want, alloc)
		}
	}
}

func TestMinMissesPrefersCacheHungryThread(t *testing.T) {
	// Thread 0 gains nothing from extra ways; thread 1 gains a lot.
	ways := 8
	flat := make([]uint64, ways+1)
	steep := make([]uint64, ways+1)
	for w := 0; w <= ways; w++ {
		flat[w] = 1000
		steep[w] = uint64(10000 / (w + 1))
	}
	alloc := MinMisses{}.Allocate([][]uint64{flat, steep}, ways)
	if alloc[0] != 1 || alloc[1] != 7 {
		t.Fatalf("alloc = %v, want [1 7]", alloc)
	}
}

func TestMinMissesDeterministicOnTies(t *testing.T) {
	ways := 8
	same := make([]uint64, ways+1)
	for w := range same {
		same[w] = 100 // completely flat: every allocation ties
	}
	a1 := MinMisses{}.Allocate([][]uint64{same, same}, ways)
	a2 := MinMisses{}.Allocate([][]uint64{same, same}, ways)
	if a1[0] != a2[0] || a1[1] != a2[1] {
		t.Fatalf("tie-breaking not deterministic: %v vs %v", a1, a2)
	}
}

func TestFair(t *testing.T) {
	curves := make([][]uint64, 3)
	for i := range curves {
		curves[i] = make([]uint64, 17)
	}
	alloc := Fair{}.Allocate(curves, 16)
	if alloc[0] != 6 || alloc[1] != 5 || alloc[2] != 5 {
		t.Fatalf("Fair alloc = %v, want [6 5 5]", alloc)
	}
	if !alloc.Valid(16) {
		t.Fatal("Fair allocation invalid")
	}
}

func TestMasksContiguousDisjointComplete(t *testing.T) {
	a := Allocation{3, 1, 4}
	masks := Masks(a, 8)
	var union plru.WayMask
	for i, m := range masks {
		if m.Count() != a[i] {
			t.Fatalf("mask %d has %d ways, want %d", i, m.Count(), a[i])
		}
		if union&m != 0 {
			t.Fatalf("mask %d overlaps earlier masks", i)
		}
		union |= m
	}
	if union != plru.Full(8) {
		t.Fatalf("masks do not cover the cache: %v", union)
	}
	// Contiguity: thread 0 gets ways 0-2.
	if !masks[0].Has(0) || !masks[0].Has(2) || masks[0].Has(3) {
		t.Fatalf("mask 0 = %v, want {0,1,2}", masks[0])
	}
}

func TestAllocationValid(t *testing.T) {
	if !(Allocation{1, 3}).Valid(4) {
		t.Error("valid allocation rejected")
	}
	if (Allocation{0, 4}).Valid(4) {
		t.Error("zero-way allocation accepted")
	}
	if (Allocation{2, 3}).Valid(4) {
		t.Error("wrong-total allocation accepted")
	}
}

func TestBuddyMinMissesPowerOfTwoShares(t *testing.T) {
	rng := xrand.New(59)
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(7)
		ways := 16
		curves := make([][]uint64, n)
		for i := range curves {
			curves[i] = syntheticCurve(rng, ways)
		}
		alloc := BuddyMinMisses(curves, ways)
		if !alloc.Valid(ways) {
			t.Fatalf("invalid buddy allocation %v", alloc)
		}
		for _, s := range alloc {
			if s&(s-1) != 0 {
				t.Fatalf("share %d not a power of two in %v", s, alloc)
			}
		}
		// The buddy optimum can never beat the unconstrained optimum.
		unconstrained := MinMisses{}.Allocate(curves, ways)
		if TotalMisses(curves, alloc) < TotalMisses(curves, unconstrained) {
			t.Fatal("buddy allocation beat the unconstrained DP")
		}
	}
}

func TestBuddyMinMissesOptimalAmongBuddy(t *testing.T) {
	// Brute-force all power-of-two compositions for small cases.
	rng := xrand.New(61)
	var enumerate func(n, left int, cur []int, out *[][]int)
	enumerate = func(n, left int, cur []int, out *[][]int) {
		if n == 0 {
			if left == 0 {
				*out = append(*out, append([]int(nil), cur...))
			}
			return
		}
		for s := 1; s <= left; s *= 2 {
			enumerate(n-1, left-s, append(cur, s), out)
		}
	}
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(2)
		ways := 8
		curves := make([][]uint64, n)
		for i := range curves {
			curves[i] = syntheticCurve(rng, ways)
		}
		var all [][]int
		enumerate(n, ways, nil, &all)
		best := ^uint64(0)
		for _, comp := range all {
			if v := TotalMisses(curves, comp); v < best {
				best = v
			}
		}
		got := TotalMisses(curves, BuddyMinMisses(curves, ways))
		if got != best {
			t.Fatalf("buddy DP %d != exhaustive best %d", got, best)
		}
	}
}

func TestBuddyLayoutDisjointAlignedComplete(t *testing.T) {
	cases := [][]int{
		{8, 4, 2, 1, 1},
		{4, 4, 4, 4},
		{16},
		{1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 4},
		{2, 1, 1, 4, 8},
	}
	for _, sizes := range cases {
		blocks, err := BuddyLayout(sizes, 16)
		if err != nil {
			t.Fatalf("layout %v: %v", sizes, err)
		}
		var union plru.WayMask
		for i, b := range blocks {
			if b.Size != sizes[i] {
				t.Fatalf("block %d has size %d, want %d", i, b.Size, sizes[i])
			}
			if b.Lo%b.Size != 0 {
				t.Fatalf("block %v misaligned", b)
			}
			if union&b.Mask() != 0 {
				t.Fatalf("block %v overlaps", b)
			}
			union |= b.Mask()
		}
		if union != plru.Full(16) {
			t.Fatalf("layout %v does not cover all ways", sizes)
		}
	}
}

func TestBuddyLayoutRejectsBadInputs(t *testing.T) {
	if _, err := BuddyLayout([]int{3, 13}, 16); err == nil {
		t.Error("non-power-of-two shares accepted")
	}
	if _, err := BuddyLayout([]int{8, 4}, 16); err == nil {
		t.Error("short total accepted")
	}
	if _, err := BuddyLayout([]int{8, 8}, 12); err == nil {
		t.Error("non-power-of-two ways accepted")
	}
}

func TestBuddyLayoutPropertyAllCompositions(t *testing.T) {
	// Every multiset of powers of two summing to 16 must pack.
	var rec func(left int, min int, cur []int) bool
	var check func(sizes []int) bool
	check = func(sizes []int) bool {
		blocks, err := BuddyLayout(sizes, 16)
		if err != nil {
			return false
		}
		var union plru.WayMask
		for _, b := range blocks {
			if b.Lo%b.Size != 0 || union&b.Mask() != 0 {
				return false
			}
			union |= b.Mask()
		}
		return union == plru.Full(16)
	}
	ok := true
	rec = func(left, min int, cur []int) bool {
		if left == 0 {
			if !check(cur) {
				return false
			}
			return true
		}
		for s := min; s <= left; s *= 2 {
			if !rec(left-s, s, append(cur, s)) {
				return false
			}
		}
		return true
	}
	if !rec(16, 1, nil) {
		ok = false
	}
	if !ok {
		t.Fatal("some power-of-two composition failed to pack")
	}
}

func TestForceVectorsMatchBlockMask(t *testing.T) {
	// For every aligned block in a 16-way cache, the force vectors must
	// steer VictimForced into exactly the block, agreeing with the mask
	// walk, regardless of tree state.
	p := plru.NewBTPolicy(1, 16)
	rng := xrand.New(71)
	for trial := 0; trial < 200; trial++ {
		p.Touch(0, rng.Intn(16), 0)
		for size := 1; size <= 16; size *= 2 {
			for lo := 0; lo < 16; lo += size {
				b := Block{Lo: lo, Size: size}
				up, down := ForceVectors(b, 16)
				v := p.VictimForced(0, up, down)
				if !b.Mask().Has(v) {
					t.Fatalf("block %v: forced victim %d escaped", b, v)
				}
				if vm := p.Victim(0, 0, b.Mask()); vm != v {
					t.Fatalf("block %v: forced %d != masked %d", b, v, vm)
				}
			}
		}
	}
}

func TestAllocationSumsProperty(t *testing.T) {
	f := func(seed uint64, rawN, rawW uint8) bool {
		n := int(rawN)%6 + 2
		ways := 16
		rng := xrand.New(seed)
		curves := make([][]uint64, n)
		for i := range curves {
			curves[i] = syntheticCurve(rng, ways)
		}
		return MinMisses{}.Allocate(curves, ways).Valid(ways) &&
			Fair{}.Allocate(curves, ways).Valid(ways) &&
			BuddyMinMisses(curves, ways).Valid(ways)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
