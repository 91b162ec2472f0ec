package cpapart

// Byte-budget support: a software cache partitions *ways*, but operators
// reason in *bytes*. The translation layer here turns per-thread byte
// budgets into per-thread way caps (WayCaps) and lets the MinMisses
// dynamic program respect those caps (AllocateCappedInto), so a
// partitioning decision driven by miss curves can be constrained by
// memory budgets without giving up the paper's way-granular enforcement.
// This is the cost/weight-aware direction of AWRP-style replacement work,
// applied at the allocator rather than per line: the replacement policy
// stays untouched (and cheap), and the budget pressure is expressed where
// the paper's machinery already makes global decisions — the way
// allocation.

// WayCaps converts per-thread byte budgets into per-thread way caps for a
// `ways`-way cache, writing into dst (reused when large enough).
//
// budgets[t] is thread t's byte budget (0 = unlimited); bytesPerWay[t] is
// the caller's estimate of how many bytes one way holds for that thread
// (typically resident bytes divided by currently assigned ways; 0 when
// there is no estimate, which also means unlimited). The raw cap is
// budgets[t]/bytesPerWay[t], clamped to [1, ways].
//
// Because a way-partitioned cache must hand out every way (an unowned way
// would be unevictable), WayCaps guarantees feasibility: while the caps
// sum below `ways`, the cap of the thread with the most unlimited budget
// — unlimited first, then largest budget, ties to the lowest thread id —
// is raised. The result therefore always satisfies cap[t] >= 1 and
// sum(cap) >= ways, which is exactly what AllocateCappedInto requires.
func WayCaps(dst []int, budgets []uint64, bytesPerWay []uint64, ways int) []int {
	n := len(budgets)
	if n == 0 {
		panic("cpapart: no threads")
	}
	if len(bytesPerWay) != n {
		panic("cpapart: budgets and bytesPerWay lengths differ")
	}
	if ways < n {
		panic("cpapart: fewer ways than threads")
	}
	if cap(dst) < n {
		dst = make([]int, n)
	}
	caps := dst[:n]
	for t := range caps {
		if budgets[t] == 0 || bytesPerWay[t] == 0 {
			caps[t] = ways
			continue
		}
		w := int(budgets[t] / bytesPerWay[t])
		if w < 1 {
			w = 1
		}
		if w > ways {
			w = ways
		}
		caps[t] = w
	}
	// Raise caps until an exact-cover allocation exists. Surplus ways go
	// to the thread that can best absorb them: unlimited budgets first,
	// then the largest budget, ties broken toward lower ids.
	for {
		total := 0
		for _, w := range caps {
			total += w
		}
		if total >= ways {
			return caps
		}
		best := -1
		for t := range caps {
			if caps[t] >= ways {
				continue
			}
			if best < 0 {
				best = t
				continue
			}
			bu, cu := budgets[best] == 0 || bytesPerWay[best] == 0, budgets[t] == 0 || bytesPerWay[t] == 0
			switch {
			case cu && !bu:
				best = t
			case cu == bu && budgets[t] > budgets[best]:
				best = t
			}
		}
		caps[best]++
	}
}

// AllocateCappedInto is AllocateInto with per-thread way caps: thread t
// receives between 1 and caps[t] ways. A nil caps behaves exactly like
// AllocateInto. The caps must admit an exact cover of `ways` (each >= 1,
// sum >= ways — what WayCaps guarantees); AllocateCappedInto panics
// otherwise, because an infeasible cap set is always a caller bug.
func (MinMisses) AllocateCappedInto(dst Allocation, s *Scratch, curves [][]uint64, ways int, caps []int) Allocation {
	checkInputs(curves, ways)
	checkCaps(caps, len(curves), ways)
	return minMisses(dst, s, curves, ways, caps, false)
}

// minMisses is the dynamic program behind AllocateCappedInto and
// BuddyMinMissesInto: thread t receives between 1 and caps[t] ways (any
// number with nil caps), restricted to powers of two when pow2 is set.
func minMisses(dst Allocation, s *Scratch, curves [][]uint64, ways int, caps []int, pow2 bool) Allocation {
	n := len(curves)
	const inf = ^uint64(0)

	// f[t][w] = min total misses over threads [0,t) using exactly w ways.
	f, choice := s.tables(n+1, ways+1)
	for t := range f {
		for w := range f[t] {
			f[t][w] = inf
			choice[t][w] = 0
		}
	}
	f[0][0] = 0
	for t := 1; t <= n; t++ {
		hi := ways
		if caps != nil && caps[t-1] < hi {
			hi = caps[t-1]
		}
		for w := t; w <= ways; w++ {
			max := w - (t - 1)
			if max > hi {
				max = hi
			}
			for a := 1; a <= max; a++ {
				prev := f[t-1][w-a]
				if prev == inf || pow2 && a&(a-1) != 0 {
					continue
				}
				cand := prev + curves[t-1][a]
				if cand < f[t][w] {
					f[t][w] = cand
					choice[t][w] = a
				}
			}
		}
	}
	if f[n][ways] == inf {
		panic("cpapart: way caps admit no exact-cover allocation")
	}
	alloc := growAlloc(dst, n)
	w := ways
	for t := n; t >= 1; t-- {
		a := choice[t][w]
		alloc[t-1] = a
		w -= a
	}
	return alloc
}

// checkCaps validates a cap vector against the allocator preconditions.
func checkCaps(caps []int, n, ways int) {
	if caps == nil {
		return
	}
	if len(caps) != n {
		panic("cpapart: caps length does not match thread count")
	}
	for _, w := range caps {
		if w < 1 || w > ways {
			panic("cpapart: each way cap must be in [1, ways]")
		}
	}
}
