package core

import (
	"fmt"

	"repro/pkg/cpapart"
)

// Goal selects what the partitioner optimizes. The paper's evaluation
// uses MinMisses; §I and §II-B note that the same infrastructure serves
// throughput, fairness and QoS targets (FlexDCP [14]) — these goals are
// implemented as extensions and exercised by the ablation benchmarks.
type Goal int

// Partitioning goals.
const (
	// GoalMinMisses minimizes total predicted misses (the paper's
	// evaluation setting).
	GoalMinMisses Goal = iota
	// GoalThroughput maximizes Σ predicted IPC.
	GoalThroughput
	// GoalFair minimizes the maximum predicted slowdown.
	GoalFair
	// GoalQoS guarantees thread 0 a slowdown bound, then maximizes the
	// rest (QoSTarget in Config).
	GoalQoS
)

// String names the goal.
func (g Goal) String() string {
	switch g {
	case GoalMinMisses:
		return "MinMisses"
	case GoalThroughput:
		return "Throughput"
	case GoalFair:
		return "Fair"
	case GoalQoS:
		return "QoS"
	default:
		return fmt.Sprintf("Goal(%d)", int(g))
	}
}

// PerfSource supplies the per-core performance observed since the
// previous repartition — the architectural counters the IPC-estimating
// goals need. The CMP simulator implements it.
type PerfSource interface {
	// PerfSince returns the instructions and cycles core `core` consumed
	// since the last call for that core.
	PerfSince(core int) (insts uint64, cycles float64)
}

// SetPerfSource installs the performance feedback used by the IPC-based
// goals. Without one, those goals fall back to MinMisses.
func (s *System) SetPerfSource(p PerfSource) { s.perf = p }

// goalAllocate computes an allocation for the configured goal. Called by
// Repartition with the current miss curves.
func (s *System) goalAllocate(curves [][]uint64) cpapart.Allocation {
	if s.cfg.Goal == GoalMinMisses || s.perf == nil {
		if s.cfg.Enforcement == EnforceUpDown {
			return cpapart.BuddyMinMisses(curves, s.ways)
		}
		return s.algo.Allocate(curves, s.ways)
	}

	ipcCurves := make([][]float64, s.cores)
	for i := range ipcCurves {
		insts, cycles := s.perf.PerfSince(i)
		cur := 1
		if s.alloc != nil {
			cur = s.alloc[i]
		}
		est := IPCEstimate{
			Insts:          insts,
			Cycles:         cycles,
			CurrentWays:    cur,
			MissPenaltyCyc: float64(s.cfg.MissPenalty),
			SampleScale:    float64(s.cfg.SampleRate),
		}
		ipcCurves[i] = est.Curve(curves[i], s.ways)
	}
	var alloc cpapart.Allocation
	switch s.cfg.Goal {
	case GoalThroughput:
		alloc = MaxThroughput{}.AllocateIPC(ipcCurves, s.ways)
	case GoalFair:
		alloc = FairSlowdown{}.AllocateIPC(ipcCurves, s.ways)
	case GoalQoS:
		alloc = QoS{MaxSlowdown: s.cfg.QoSTarget}.AllocateIPC(ipcCurves, s.ways)
	default:
		alloc = s.algo.Allocate(curves, s.ways)
	}
	if s.cfg.Enforcement == EnforceUpDown {
		// The BT hardware can only enforce buddy shares: round the goal
		// allocation to the nearest feasible buddy partition by treating
		// it as a miss-curve preference (shares closest to the ideal).
		alloc = roundToBuddy(alloc, s.ways)
	}
	return alloc
}

// roundToBuddy converts an arbitrary allocation into power-of-two shares
// summing to ways, staying as close as possible to the ideal (largest
// remainder on the log scale).
func roundToBuddy(ideal cpapart.Allocation, ways int) cpapart.Allocation {
	n := len(ideal)
	alloc := make(cpapart.Allocation, n)
	total := 0
	for i, w := range ideal {
		p := 1
		for p*2 <= w {
			p *= 2
		}
		alloc[i] = p
		total += p
	}
	// Grow the thread whose ideal is furthest above its share while the
	// doubling still fits; shrink the one furthest below if over budget.
	for total < ways {
		best, bestGap := -1, -1.0
		for i := range alloc {
			if total+alloc[i] > ways {
				continue
			}
			gap := float64(ideal[i]) / float64(alloc[i])
			if gap > bestGap {
				bestGap, best = gap, i
			}
		}
		if best < 0 {
			break
		}
		total += alloc[best]
		alloc[best] *= 2
	}
	for total > ways {
		best, bestGap := -1, -1.0
		for i := range alloc {
			if alloc[i] == 1 {
				continue
			}
			gap := float64(alloc[i]) / float64(ideal[i])
			if gap > bestGap {
				bestGap, best = gap, i
			}
		}
		if best < 0 {
			break
		}
		total -= alloc[best] / 2
		alloc[best] /= 2
	}
	if total != ways {
		// Extremely skewed inputs: fall back to an even buddy split.
		flat := make([][]uint64, n)
		for i := range flat {
			flat[i] = make([]uint64, ways+1)
		}
		return cpapart.BuddyMinMisses(flat, ways)
	}
	return alloc
}
