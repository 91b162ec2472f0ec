package cpapart

import (
	"reflect"
	"testing"
)

// flatCurve returns a curve that never benefits from ways (a churner).
func flatCurve(ways int, misses uint64) []uint64 {
	c := make([]uint64, ways+1)
	for i := range c {
		c[i] = misses
	}
	return c
}

// stepCurve returns a curve whose misses drop to `floor` once the thread
// owns at least `need` ways (a looping working set of that size).
func stepCurve(ways, need int, top, floor uint64) []uint64 {
	c := make([]uint64, ways+1)
	for i := range c {
		if i >= need {
			c[i] = floor
		} else {
			c[i] = top
		}
	}
	return c
}

func TestWayCaps(t *testing.T) {
	tests := []struct {
		name        string
		budgets     []uint64
		bytesPerWay []uint64
		ways        int
		want        []int
	}{
		{
			name:        "plain division",
			budgets:     []uint64{4096, 1024},
			bytesPerWay: []uint64{512, 512},
			ways:        8,
			want:        []int{8, 2},
		},
		{
			name:        "zero budget means unlimited",
			budgets:     []uint64{0, 2048},
			bytesPerWay: []uint64{512, 512},
			ways:        8,
			want:        []int{8, 4},
		},
		{
			name:        "zero estimate means unlimited",
			budgets:     []uint64{100, 2048},
			bytesPerWay: []uint64{0, 512},
			ways:        8,
			want:        []int{8, 4},
		},
		{
			name:        "tiny budget still gets one way",
			budgets:     []uint64{1, 0},
			bytesPerWay: []uint64{512, 512},
			ways:        8,
			want:        []int{1, 8},
		},
		{
			// Every thread capped below ways/n: caps must be raised until
			// an exact cover exists, toward the larger budget (thread 1).
			name:        "infeasible caps raised toward larger budget",
			budgets:     []uint64{512, 1024},
			bytesPerWay: []uint64{512, 512},
			ways:        8,
			want:        []int{1, 7},
		},
		{
			// Equal budgets tie: every surplus way goes to the lower id.
			name:        "equal budgets raise the lower id",
			budgets:     []uint64{512, 512},
			bytesPerWay: []uint64{512, 512},
			ways:        8,
			want:        []int{7, 1},
		},
		{
			// Thread 0 holds the largest of three budgets, so the one
			// missing way goes to it, not to a later thread.
			name:        "largest budget at thread 0 of three",
			budgets:     []uint64{2048, 512, 1024},
			bytesPerWay: []uint64{512, 512, 512},
			ways:        8,
			want:        []int{5, 1, 2},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := WayCaps(nil, tc.budgets, tc.bytesPerWay, tc.ways)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("WayCaps(%v,%v,%d) = %v, want %v",
					tc.budgets, tc.bytesPerWay, tc.ways, got, tc.want)
			}
			// Feasibility invariants the capped allocators rely on.
			total := 0
			for _, w := range got {
				if w < 1 || w > tc.ways {
					t.Fatalf("cap %d out of [1,%d]", w, tc.ways)
				}
				total += w
			}
			if total < tc.ways {
				t.Fatalf("caps %v sum to %d < %d ways", got, total, tc.ways)
			}
		})
	}
}

func TestWayCapsReusesDst(t *testing.T) {
	dst := make([]int, 4)
	got := WayCaps(dst, []uint64{0, 0}, []uint64{0, 0}, 8)
	if &got[0] != &dst[0] {
		t.Fatal("WayCaps allocated a fresh slice despite a large enough dst")
	}
}

// TestAllocateCappedHonorsCaps checks the capped DP never hands a thread
// more than its cap, and that it matches the uncapped DP when caps do not
// bind.
func TestAllocateCappedHonorsCaps(t *testing.T) {
	ways := 16
	curves := [][]uint64{
		stepCurve(ways, 12, 1000, 10), // wants 12 ways
		stepCurve(ways, 4, 500, 5),    // wants 4
		flatCurve(ways, 300),          // wants none
	}
	var s Scratch

	uncapped := MinMisses{}.AllocateCappedInto(nil, &s, curves, ways, nil)
	if want := (MinMisses{}).Allocate(curves, ways); !reflect.DeepEqual(uncapped, want) {
		t.Fatalf("nil caps diverges from Allocate: %v vs %v", uncapped, want)
	}
	if uncapped[0] < 12 {
		t.Fatalf("uncapped: thread 0 got %d ways, want >= 12", uncapped[0])
	}

	// Cap thread 0 at 6: the DP must respect it and give the freed ways
	// to whoever still benefits.
	capped := MinMisses{}.AllocateCappedInto(nil, &s, curves, ways, []int{6, 16, 16})
	if capped[0] > 6 {
		t.Fatalf("capped: thread 0 got %d ways over its cap of 6", capped[0])
	}
	if !Allocation(capped).Valid(ways) {
		t.Fatalf("capped allocation %v invalid", capped)
	}
	// Loose caps must not change the answer.
	loose := MinMisses{}.AllocateCappedInto(nil, &s, curves, ways, []int{16, 16, 16})
	if !reflect.DeepEqual(loose, uncapped) {
		t.Fatalf("loose caps changed the allocation: %v vs %v", loose, uncapped)
	}
}

// TestAllocateCappedOptimalUnderCaps checks the capped DP is still optimal
// among allocations that respect the caps (exhaustive check, small case).
func TestAllocateCappedOptimalUnderCaps(t *testing.T) {
	ways := 8
	curves := [][]uint64{
		stepCurve(ways, 5, 100, 2),
		stepCurve(ways, 4, 90, 1),
	}
	caps := []int{3, 8}
	var s Scratch
	got := MinMisses{}.AllocateCappedInto(nil, &s, curves, ways, caps)
	best := ^uint64(0)
	var bestAlloc Allocation
	for a := 1; a <= caps[0] && a < ways; a++ {
		b := ways - a
		if b < 1 || b > caps[1] {
			continue
		}
		if m := curves[0][a] + curves[1][b]; m < best {
			best = m
			bestAlloc = Allocation{a, b}
		}
	}
	if TotalMisses(curves, got) != best {
		t.Fatalf("capped DP chose %v (%d misses), optimum %v (%d)",
			got, TotalMisses(curves, got), bestAlloc, best)
	}
}

func TestCappedPanicsOnBadCaps(t *testing.T) {
	ways := 8
	curves := [][]uint64{flatCurve(ways, 1), flatCurve(ways, 1)}
	var s Scratch
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("wrong length", func() {
		MinMisses{}.AllocateCappedInto(nil, &s, curves, ways, []int{8})
	})
	mustPanic("zero cap", func() {
		MinMisses{}.AllocateCappedInto(nil, &s, curves, ways, []int{0, 8})
	})
	mustPanic("infeasible sum", func() {
		MinMisses{}.AllocateCappedInto(nil, &s, curves, ways, []int{3, 3})
	})
}

func TestAllocationExceeds(t *testing.T) {
	tests := []struct {
		name string
		a    Allocation
		caps []int
		want bool
	}{
		{name: "nil caps is unconstrained", a: Allocation{8, 8}, caps: nil, want: false},
		{name: "within caps", a: Allocation{4, 2}, caps: []int{4, 2}, want: false},
		{name: "one tenant over", a: Allocation{5, 2}, caps: []int{4, 4}, want: true},
		{name: "last tenant over", a: Allocation{1, 1, 3}, caps: []int{2, 2, 2}, want: true},
		{name: "zero allocation never exceeds", a: Allocation{0, 0}, caps: []int{0, 0}, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Exceeds(tt.caps); got != tt.want {
				t.Fatalf("Allocation(%v).Exceeds(%v) = %v, want %v", tt.a, tt.caps, got, tt.want)
			}
		})
	}
}
