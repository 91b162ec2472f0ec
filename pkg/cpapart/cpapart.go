// Package cpapart implements the partition-selection side of a dynamic
// cache partitioning algorithm: given per-thread (per-tenant) miss curves
// derived from (e)SDHs or any other profile, choose how many ways each
// thread receives. It is the public home of the algorithms the paper
// reproduction uses internally, and the quota engine behind
// repro/pkg/cpacache's online rebalancing.
//
// The paper uses MinMisses [Qureshi & Patt, MICRO'06 / Moreto et al.]:
// assign ways so the predicted total miss count is minimal, with at least
// one way per thread. We implement it as an exact dynamic program (cheap
// at N ≤ 8 threads, A = 16 ways), with Fair (an equal split) as the
// baseline. Masks enforce any allocation under every policy.
//
// The paper's own BT enforcement uses per-level up/down force vectors,
// which can only express a power-of-two share on an aligned "buddy"
// block; BuddyMinMisses performs the optimal rounding, BuddyLayout
// computes a concrete block placement and ForceVectors the vectors. The
// simulator's M-BT configuration uses them.
package cpapart

import (
	"fmt"

	"repro/pkg/plru"
)

// Allocation holds the number of ways assigned to each thread.
type Allocation []int

// Total returns the number of ways allocated in total.
func (a Allocation) Total() int {
	t := 0
	for _, w := range a {
		t += w
	}
	return t
}

// Valid reports whether the allocation gives every thread at least one
// way and exactly `ways` in total.
func (a Allocation) Valid(ways int) bool {
	if a.Total() != ways {
		return false
	}
	for _, w := range a {
		if w < 1 {
			return false
		}
	}
	return true
}

// String renders e.g. "[10 4 1 1]".
func (a Allocation) String() string { return fmt.Sprint([]int(a)) }

// Exceeds reports whether any thread's share exceeds its cap. A nil caps
// slice means unconstrained; caps must otherwise be at least as long as
// the allocation. Callers enforcing byte budgets translate them into way
// caps and use this to detect an installed allocation that violates them.
func (a Allocation) Exceeds(caps []int) bool {
	if caps == nil {
		return false
	}
	for t, w := range a {
		if w > caps[t] {
			return true
		}
	}
	return false
}

// checkInputs validates the common Allocate preconditions: curves[i][w]
// is the predicted miss count of thread i when assigned w ways (w in
// 0..ways), non-increasing in w.
func checkInputs(curves [][]uint64, ways int) {
	n := len(curves)
	if n == 0 {
		panic("cpapart: no threads")
	}
	if ways < n {
		panic(fmt.Sprintf("cpapart: %d ways cannot give %d threads one each", ways, n))
	}
	for i, c := range curves {
		if len(c) != ways+1 {
			panic(fmt.Sprintf("cpapart: curve %d has %d entries, want %d", i, len(c), ways+1))
		}
	}
}

// TotalMisses evaluates an allocation against the curves.
func TotalMisses(curves [][]uint64, a Allocation) uint64 {
	var t uint64
	for i, w := range a {
		t += curves[i][w]
	}
	return t
}

// MinMisses is the exact dynamic-programming MinMisses policy.
type MinMisses struct{}

// Allocate returns an allocation minimizing the predicted total misses
// with >= 1 way per thread. Ties are broken toward giving earlier threads
// fewer ways, deterministically. Use AllocateInto with a Scratch to run
// the same dynamic program without per-call allocation.
func (m MinMisses) Allocate(curves [][]uint64, ways int) Allocation {
	var s Scratch
	return m.AllocateInto(nil, &s, curves, ways)
}

// Fair splits ways as evenly as possible (remainder to lower thread ids).
type Fair struct{}

// Allocate ignores the curves and splits evenly.
func (Fair) Allocate(curves [][]uint64, ways int) Allocation {
	checkInputs(curves, ways)
	n := len(curves)
	alloc := make(Allocation, n)
	for i := range alloc {
		alloc[i] = ways / n
	}
	for i := 0; i < ways%n; i++ {
		alloc[i]++
	}
	return alloc
}

// Masks converts an allocation into contiguous global replacement masks:
// thread i receives alloc[i] consecutive ways starting where thread i-1's
// share ended. Contiguity is not required by the masks hardware but keeps
// layouts deterministic and comparable with the BT buddy layout.
func Masks(a Allocation, ways int) []plru.WayMask {
	return MasksInto(nil, a, ways)
}

// ----- Binary-buddy support for BT enforcement -----

// Block is an aligned region of ways [Lo, Lo+Size) with Size a power of
// two and Lo a multiple of Size.
type Block struct{ Lo, Size int }

// Mask returns the block as a way mask.
func (b Block) Mask() plru.WayMask {
	return plru.Full(b.Lo+b.Size) &^ plru.Full(b.Lo)
}

// BuddyMinMisses returns the allocation minimizing predicted misses under
// the BT constraint that every share is a power of two (and the shares sum
// to `ways`, which must itself be a power of two). Use BuddyMinMissesInto
// with a Scratch to run the same dynamic program without per-call
// allocation.
func BuddyMinMisses(curves [][]uint64, ways int) Allocation {
	var s Scratch
	return BuddyMinMissesInto(nil, &s, curves, ways)
}

// BuddyLayout places power-of-two shares onto disjoint aligned blocks of a
// `ways`-way set. A multiset of powers of two summing to `ways` always
// packs (largest-first into a buddy free list); BuddyLayout returns an
// error only on invalid inputs. Use BuddyLayoutInto with a Scratch to
// compute the same placement without per-call allocation.
func BuddyLayout(sizes []int, ways int) ([]Block, error) {
	var s Scratch
	return BuddyLayoutInto(nil, &s, sizes, ways)
}

// ForceVectors converts an aligned block into the paper's per-level
// up/down force vectors for a BT of the given associativity: levels above
// the block's subtree are forced toward it and levels inside are free.
func ForceVectors(b Block, ways int) (up, down []bool) {
	levels := 0
	for 1<<uint(levels) < ways {
		levels++
	}
	up = make([]bool, levels)
	down = make([]bool, levels)
	span := ways
	base := 0
	for d := 0; d < levels && span > b.Size; d++ {
		mid := base + span/2
		if b.Lo < mid {
			up[d] = true
		} else {
			down[d] = true
			base = mid
		}
		span /= 2
	}
	return up, down
}
