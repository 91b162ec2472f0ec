package core

import (
	"fmt"
	"math"

	"repro/pkg/cpapart"
)

// This file implements the goal-directed partitioning policies the paper
// points to in §II-B ("Further goals can be reached, when the policy is
// modified to favor fairness or QoS [14]" — FlexDCP, Moreto et al.). The
// hardware estimates each thread's IPC as a function of assigned ways
// from its (e)SDH miss curve plus the performance observed during the
// last interval, and the partitioner optimizes a metric over those
// curves.

// IPCEstimate converts a thread's observed interval performance and its
// miss curve into a predicted IPC for every allocation.
//
// Model: cycles(w) = observedCycles + (misses(w) − misses(current)) × penalty.
// misses are in profiled (sampled) units; SampleScale converts them to
// cache-wide counts (the ATD samples 1/SampleScale of the sets).
type IPCEstimate struct {
	Insts          uint64  // instructions committed in the interval
	Cycles         float64 // cycles consumed in the interval
	CurrentWays    int     // allocation the observation was made under
	MissPenaltyCyc float64 // effective penalty per additional miss
	SampleScale    float64 // cache sets per profiled set (>= 1)
}

// Curve returns predicted IPC for allocations 0..ways given the thread's
// miss curve (profiled units). Allocation 0 is a placeholder (same as 1).
func (e IPCEstimate) Curve(misses []uint64, ways int) []float64 {
	if len(misses) != ways+1 {
		panic(fmt.Sprintf("core: miss curve has %d entries, want %d", len(misses), ways+1))
	}
	if e.Cycles <= 0 || e.Insts == 0 {
		// No observation yet: fall back to a flat positive curve so the
		// optimizer still produces a valid allocation.
		out := make([]float64, ways+1)
		for i := range out {
			out[i] = 1
		}
		return out
	}
	cur := e.CurrentWays
	if cur < 1 {
		cur = 1
	}
	if cur > ways {
		cur = ways
	}
	out := make([]float64, ways+1)
	for w := 0; w <= ways; w++ {
		ref := w
		if ref < 1 {
			ref = 1
		}
		delta := (float64(misses[ref]) - float64(misses[cur])) * e.SampleScale
		cycles := e.Cycles + delta*e.MissPenaltyCyc
		// Even a pathological estimate cannot predict fewer cycles than
		// the instructions themselves need on an ideal machine.
		if min := float64(e.Insts) / 8; cycles < min {
			cycles = min
		}
		out[w] = float64(e.Insts) / cycles
	}
	return out
}

// MaxThroughput picks the allocation maximizing Σ predicted IPC, with at
// least one way per thread (exact DP, mirroring MinMisses).
type MaxThroughput struct{}

// AllocateIPC maximizes the sum of the per-thread IPC curves.
func (MaxThroughput) AllocateIPC(curves [][]float64, ways int) cpapart.Allocation {
	checkIPCInputs(curves, ways)
	n := len(curves)
	negInf := math.Inf(-1)
	f := make([][]float64, n+1)
	choice := make([][]int, n+1)
	for t := range f {
		f[t] = make([]float64, ways+1)
		choice[t] = make([]int, ways+1)
		for w := range f[t] {
			f[t][w] = negInf
		}
	}
	f[0][0] = 0
	for t := 1; t <= n; t++ {
		for w := t; w <= ways; w++ {
			for a := 1; a <= w-(t-1); a++ {
				if prev := f[t-1][w-a]; prev != negInf {
					if cand := prev + curves[t-1][a]; cand > f[t][w] {
						f[t][w] = cand
						choice[t][w] = a
					}
				}
			}
		}
	}
	alloc := make(cpapart.Allocation, n)
	w := ways
	for t := n; t >= 1; t-- {
		a := choice[t][w]
		alloc[t-1] = a
		w -= a
	}
	return alloc
}

// FairSlowdown minimizes the maximum per-thread slowdown relative to each
// thread's predicted full-cache IPC (minimax fairness). Ties are resolved
// by maximizing total IPC among minimax-optimal allocations.
type FairSlowdown struct{}

// AllocateIPC performs the minimax optimization: binary search over the
// achievable slowdown values, where feasibility at slowdown s means every
// thread can reach IPC(full)/s with shares summing to at most `ways`.
func (FairSlowdown) AllocateIPC(curves [][]float64, ways int) cpapart.Allocation {
	checkIPCInputs(curves, ways)
	n := len(curves)
	// minWays(i, s): smallest share giving thread i slowdown <= s.
	minWays := func(i int, s float64) int {
		target := curves[i][ways] / s
		for w := 1; w <= ways; w++ {
			if curves[i][w] >= target-1e-12 {
				return w
			}
		}
		return ways + 1 // unreachable at this slowdown
	}
	// Candidate slowdowns: every distinct full/curve ratio.
	var cands []float64
	for i := 0; i < n; i++ {
		for w := 1; w <= ways; w++ {
			if curves[i][w] > 0 {
				cands = append(cands, curves[i][ways]/curves[i][w])
			}
		}
	}
	cands = append(cands, 1)
	best := math.Inf(1)
	for _, s := range cands {
		if s < 1 {
			continue
		}
		total := 0
		for i := 0; i < n; i++ {
			total += minWays(i, s)
		}
		if total <= ways && s < best {
			best = s
		}
	}
	if math.IsInf(best, 1) {
		// No slowdown target is jointly reachable (degenerate curves):
		// fall back to an even split.
		return cpapart.Fair{}.Allocate(uintCurves(n, ways), ways)
	}
	alloc := make(cpapart.Allocation, n)
	used := 0
	for i := 0; i < n; i++ {
		alloc[i] = minWays(i, best)
		used += alloc[i]
	}
	// Distribute leftovers by marginal IPC gain.
	for used < ways {
		bi, bg := 0, -1.0
		for i := 0; i < n; i++ {
			if alloc[i] >= ways {
				continue
			}
			if g := curves[i][alloc[i]+1] - curves[i][alloc[i]]; g > bg {
				bg, bi = g, i
			}
		}
		alloc[bi]++
		used++
	}
	return alloc
}

// QoS guarantees thread 0 a maximum slowdown versus its predicted
// full-cache IPC and spends the remaining ways maximizing the other
// threads' total IPC — the paper's QoS framing (§I, [10], [14], [17]).
type QoS struct {
	// MaxSlowdown for thread 0 (e.g. 1.1 = at most 10% below full-cache
	// IPC). Must be >= 1.
	MaxSlowdown float64
}

// AllocateIPC reserves ways for thread 0 first.
func (q QoS) AllocateIPC(curves [][]float64, ways int) cpapart.Allocation {
	checkIPCInputs(curves, ways)
	if q.MaxSlowdown < 1 {
		panic("core: QoS MaxSlowdown must be >= 1")
	}
	n := len(curves)
	if n == 1 {
		return cpapart.Allocation{ways}
	}
	target := curves[0][ways] / q.MaxSlowdown
	reserve := ways - (n - 1) // leave one way for everyone else
	got := reserve
	for w := 1; w <= reserve; w++ {
		if curves[0][w] >= target-1e-12 {
			got = w
			break
		}
	}
	left := ways - got
	trimmed := make([][]float64, n-1)
	for i, c := range curves[1:] {
		trimmed[i] = c[:left+1]
	}
	rest := MaxThroughput{}.AllocateIPC(trimmed, left)
	alloc := make(cpapart.Allocation, n)
	alloc[0] = got
	copy(alloc[1:], rest)
	return alloc
}

func checkIPCInputs(curves [][]float64, ways int) {
	n := len(curves)
	if n == 0 {
		panic("core: no threads")
	}
	if ways < n {
		panic(fmt.Sprintf("core: %d ways cannot give %d threads one each", ways, n))
	}
	for i, c := range curves {
		if len(c) != ways+1 {
			panic(fmt.Sprintf("core: IPC curve %d has %d entries, want %d", i, len(c), ways+1))
		}
	}
}

func uintCurves(n, ways int) [][]uint64 {
	out := make([][]uint64, n)
	for i := range out {
		out[i] = make([]uint64, ways+1)
	}
	return out
}
