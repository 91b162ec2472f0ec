package plru_test

import (
	"math/bits"
	"testing"

	"repro/internal/complexity"
	"repro/pkg/plru"
)

// TestStateWidthMatchesTableI reads Table I(a) off the code: at the
// paper's geometry, the bits a BT set's tree word and an NRU set's used
// word ever take are exactly the per-set storage complexity.StorageBits
// prices (A-1 and A bits), and what NRU keeps beyond them is its one
// global log2(A)-bit pointer.
func TestStateWidthMatchesTableI(t *testing.T) {
	g := complexity.PaperGeometry()
	a := g.Ways
	// The per-set term is what doubling the number of sets adds per set;
	// the rest is global.
	g2 := g
	g2.SizeBytes *= 2
	split := func(k plru.Kind) (perSet, global int) {
		b1, b2 := complexity.StorageBits(k, g, false), complexity.StorageBits(k, g2, false)
		perSet = (b2 - b1) / g.Sets()
		return perSet, b1 - perSet*g.Sets()
	}

	bt := plru.NewBTPolicy(1, a)
	var tree uint64
	for w := 0; w < a; w++ {
		bt.Touch(0, w, 0)
		tree |= bt.TreeBits(0)
	}
	if perSet, global := split(plru.BT); tree != uint64(plru.Full(perSet)) || perSet != a-1 || global != 0 {
		t.Errorf("BT: tree bits used %#x; Table I(a) prices %d bits per set and %d global", tree, perSet, global)
	}

	nru := plru.NewNRUPolicy(1, a, 1)
	var used uint64
	for w := 0; w < a; w++ {
		nru.Touch(0, w, 0)
		used |= nru.UsedBits(0)
	}
	ptr := bits.Len(uint(a - 1))
	if perSet, global := split(plru.NRU); used != uint64(plru.Full(perSet)) || perSet != a || global != ptr {
		t.Errorf("NRU: used bits %#x; Table I(a) prices %d bits per set and %d global, want %d and %d", used, perSet, global, a, ptr)
	}
}
