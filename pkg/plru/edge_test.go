package plru

import "testing"

// Edge geometries: 1-way and 2-way caches exercise degenerate paths in
// every policy (single-line sets have no recency order; BT's smallest
// tree has one bit).

func TestOneWayLRU(t *testing.T) {
	p := NewLRUPolicy(4, 1)
	p.Touch(0, 0, 0)
	if v := p.Victim(0, 0, Full(1)); v != 0 {
		t.Fatalf("1-way victim = %d", v)
	}
	if d := p.Dist(0, 0); d != 1 {
		t.Fatalf("1-way stack distance = %d", d)
	}
}

func TestOneWayNRU(t *testing.T) {
	p := NewNRUPolicy(4, 1, 1)
	// Touch saturates the single-line scope; the reset must keep the
	// accessed line's bit and Victim must still terminate.
	p.Touch(0, 0, 0)
	if !p.Used(0, 0) {
		t.Fatal("single way should keep its used bit")
	}
	if v := p.Victim(0, 0, Full(1)); v != 0 {
		t.Fatalf("1-way victim = %d", v)
	}
}

func TestTwoWayBT(t *testing.T) {
	p := NewBTPolicy(2, 2)
	p.Touch(0, 0, 0)
	if v := p.Victim(0, 0, Full(2)); v != 1 {
		t.Fatalf("victim after touching way 0 = %d, want 1", v)
	}
	p.Touch(0, 1, 0)
	if v := p.Victim(0, 0, Full(2)); v != 0 {
		t.Fatalf("victim after touching way 1 = %d, want 0", v)
	}
	if est := p.EstStackPos(0, 1); est != 1 {
		t.Fatalf("just-touched estimate = %d", est)
	}
}

func TestOneWayBTPanics(t *testing.T) {
	// A 1-way BT has zero tree bits; the constructor accepts it only if
	// it stays consistent. ways=1 is a power of two, levels=0: Victim
	// must return way 0.
	p := NewBTPolicy(1, 1)
	if v := p.Victim(0, 0, Full(1)); v != 0 {
		t.Fatalf("1-way BT victim = %d", v)
	}
}

func TestSingleSetPolicies(t *testing.T) {
	for _, k := range []Kind{LRU, NRU, BT, Random} {
		p := New(k, 1, 4, 1, 3)
		for i := 0; i < 100; i++ {
			w := p.Victim(0, 0, Full(4))
			p.Touch(0, w, 0)
		}
	}
}

func TestVictimSetOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range set")
		}
	}()
	NewLRUPolicy(2, 4).Victim(2, 0, Full(4))
}

func TestMaskBeyondWaysIgnored(t *testing.T) {
	// Bits above the associativity in the allowed mask must not yield
	// invalid ways.
	p := NewLRUPolicy(1, 4)
	v := p.Victim(0, 0, WayMask(0xF0F))
	if v < 0 || v >= 4 {
		t.Fatalf("victim %d out of range with oversized mask", v)
	}
	// Nor may they widen NRU's reset scope past the set: touching all
	// four ways of either set under a 0xFF partition is a full-scope
	// reset that keeps only the last way touched.
	for set := 0; set < 2; set++ {
		n := NewNRUPolicy(2, 4, 1)
		n.SetPartition([]WayMask{0xFF})
		for w := 0; w < 4; w++ {
			n.Touch(set, w, 0)
		}
		if got := n.UsedCount(set); got != 1 || !n.Used(set, 3) {
			t.Fatalf("set %d: UsedCount %d after touching every way under a 0xFF scope, want 1 (way 3)", set, got)
		}
		if got := n.UsedCount(1 - set); got != 0 {
			t.Fatalf("set %d's touches left %d used bits in set %d", set, got, 1-set)
		}
	}
}
