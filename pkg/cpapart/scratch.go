package cpapart

import (
	"fmt"

	"repro/pkg/plru"
)

// Scratch holds the working storage the *Into allocator variants reuse
// between calls: the DP tables of MinMisses/BuddyMinMisses and the free
// list + ordering of BuddyLayoutInto. A zero Scratch is ready to use; it
// grows on first use and every later call with the same (threads, ways)
// geometry runs without heap allocation. A Scratch is not safe for
// concurrent use — callers that repartition online (repro/pkg/cpacache's
// Rebalance) keep one per cache behind their control-plane lock.
type Scratch struct {
	f      [][]uint64
	choice [][]int
	free   []Block
	order  []int
}

// tables returns f and choice sized rows×cols, reusing prior backing
// arrays whenever they are large enough. Contents are undefined; callers
// must initialize every cell they read.
func (s *Scratch) tables(rows, cols int) ([][]uint64, [][]int) {
	if cap(s.f) < rows {
		s.f = make([][]uint64, rows)
		s.choice = make([][]int, rows)
	}
	s.f = s.f[:rows]
	s.choice = s.choice[:rows]
	for i := 0; i < rows; i++ {
		if cap(s.f[i]) < cols {
			s.f[i] = make([]uint64, cols)
			s.choice[i] = make([]int, cols)
		}
		s.f[i] = s.f[i][:cols]
		s.choice[i] = s.choice[i][:cols]
	}
	return s.f, s.choice
}

// growAlloc returns dst resized to n entries, reusing its backing array
// when possible.
func growAlloc(dst Allocation, n int) Allocation {
	if cap(dst) < n {
		return make(Allocation, n)
	}
	return dst[:n]
}

// AllocateInto is Allocate with caller-owned result and scratch storage:
// the returned Allocation reuses dst's backing array when it is large
// enough, and the DP tables live in s. Steady-state calls (same geometry)
// perform no heap allocation. It is the uncapped case of
// AllocateCappedInto (budget.go), which holds the one DP implementation.
func (m MinMisses) AllocateInto(dst Allocation, s *Scratch, curves [][]uint64, ways int) Allocation {
	return m.AllocateCappedInto(dst, s, curves, ways, nil)
}

// BuddyMinMissesInto is BuddyMinMisses with caller-owned result and
// scratch storage, mirroring AllocateInto: the same dynamic program with
// every share restricted to a power of two.
func BuddyMinMissesInto(dst Allocation, s *Scratch, curves [][]uint64, ways int) Allocation {
	checkInputs(curves, ways)
	if ways&(ways-1) != 0 {
		panic("cpapart: buddy allocation requires power-of-two ways")
	}
	return minMisses(dst, s, curves, ways, nil, true)
}

// BuddyLayoutInto is BuddyLayout with caller-owned result and scratch
// storage: dst's backing array is reused when large enough, and the buddy
// free list plus size ordering live in s. The placement is identical to
// BuddyLayout's (largest-first, stable on thread index, lowest fitting
// address).
func BuddyLayoutInto(dst []Block, s *Scratch, sizes []int, ways int) ([]Block, error) {
	if ways <= 0 || ways&(ways-1) != 0 {
		return nil, fmt.Errorf("cpapart: ways %d not a power of two", ways)
	}
	total := 0
	for _, sz := range sizes {
		if sz <= 0 || sz&(sz-1) != 0 {
			return nil, fmt.Errorf("cpapart: share %d not a power of two", sz)
		}
		total += sz
	}
	if total != ways {
		return nil, fmt.Errorf("cpapart: shares sum to %d, want %d", total, ways)
	}

	// Order indices by size descending; insertion sort keeps it stable on
	// index (determinism) without sort.SliceStable's closure allocation.
	order := s.order[:0]
	for i := range sizes {
		order = append(order, i)
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && sizes[order[j-1]] < sizes[order[j]]; j-- {
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	s.order = order

	free := append(s.free[:0], Block{Lo: 0, Size: ways}) // kept sorted by Lo
	if cap(dst) < len(sizes) {
		dst = make([]Block, len(sizes))
	}
	blocks := dst[:len(sizes)]
	for _, i := range order {
		want := sizes[i]
		// Find the smallest free block that fits, lowest address first.
		best := -1
		for j, b := range free {
			if b.Size >= want && (best < 0 || b.Size < free[best].Size ||
				(b.Size == free[best].Size && b.Lo < free[best].Lo)) {
				best = j
			}
		}
		if best < 0 {
			s.free = free
			return nil, fmt.Errorf("cpapart: internal packing failure for sizes %v", sizes)
		}
		b := free[best]
		free = append(free[:best], free[best+1:]...)
		// Split down to the wanted size, returning the upper halves.
		for b.Size > want {
			half := b.Size / 2
			free = append(free, Block{Lo: b.Lo + half, Size: half})
			b.Size = half
		}
		blocks[i] = b
		// Re-sort the free list by Lo (insertion sort: it is nearly sorted).
		for x := 1; x < len(free); x++ {
			for y := x; y > 0 && free[y-1].Lo > free[y].Lo; y-- {
				free[y-1], free[y] = free[y], free[y-1]
			}
		}
	}
	s.free = free
	return blocks, nil
}

// MasksInto is Masks with a caller-owned destination slice, reused when
// large enough.
func MasksInto(dst []plru.WayMask, a Allocation, ways int) []plru.WayMask {
	if !a.Valid(ways) {
		panic(fmt.Sprintf("cpapart: allocation %v invalid for %d ways", a, ways))
	}
	if cap(dst) < len(a) {
		dst = make([]plru.WayMask, len(a))
	}
	masks := dst[:len(a)]
	lo := 0
	for i, w := range a {
		masks[i] = 0
		for k := 0; k < w; k++ {
			masks[i] = masks[i].With(lo + k)
		}
		lo += w
	}
	return masks
}
