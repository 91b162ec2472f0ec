package core

import (
	"math"
	"testing"

	"repro/internal/xrand"
	"repro/pkg/cpapart"
)

// monotoneIPCCurves builds n non-decreasing IPC curves.
func monotoneIPCCurves(rng *xrand.RNG, n, ways int) [][]float64 {
	curves := make([][]float64, n)
	for i := range curves {
		c := make([]float64, ways+1)
		v := 0.1 + rng.Float64()
		for w := 0; w <= ways; w++ {
			c[w] = v
			v += rng.Float64() * 0.2
		}
		curves[i] = c
	}
	return curves
}

func TestIPCEstimateCurveShape(t *testing.T) {
	ways := 8
	misses := make([]uint64, ways+1)
	for w := 0; w <= ways; w++ {
		misses[w] = uint64((ways - w) * 100)
	}
	e := IPCEstimate{
		Insts: 100000, Cycles: 200000, CurrentWays: 4,
		MissPenaltyCyc: 200, SampleScale: 32,
	}
	curve := e.Curve(misses, ways)
	// IPC must be non-decreasing in ways (misses non-increasing).
	for w := 2; w <= ways; w++ {
		if curve[w] < curve[w-1]-1e-12 {
			t.Fatalf("IPC curve decreasing at %d: %v", w, curve)
		}
	}
	// At the observed allocation the prediction equals the observation.
	obs := float64(e.Insts) / e.Cycles
	if math.Abs(curve[4]-obs) > 1e-12 {
		t.Fatalf("curve at current ways %v != observed %v", curve[4], obs)
	}
}

func TestIPCEstimateNoObservation(t *testing.T) {
	e := IPCEstimate{}
	curve := e.Curve(make([]uint64, 9), 8)
	for _, v := range curve {
		if v != 1 {
			t.Fatalf("fallback curve not flat: %v", curve)
		}
	}
}

func TestIPCEstimateClampsCycles(t *testing.T) {
	// A wildly optimistic miss delta cannot drive cycles below insts/8.
	ways := 4
	misses := []uint64{1000, 1000, 1000, 1000, 0}
	e := IPCEstimate{
		Insts: 1000, Cycles: 2000, CurrentWays: 1,
		MissPenaltyCyc: 1e9, SampleScale: 1,
	}
	curve := e.Curve(misses, ways)
	if curve[ways] > 8 {
		t.Fatalf("IPC %v exceeds the 8-wide bound", curve[ways])
	}
}

func TestMaxThroughputOptimal(t *testing.T) {
	rng := xrand.New(3)
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(3)
		ways := 8
		curves := monotoneIPCCurves(rng, n, ways)
		alloc := MaxThroughput{}.AllocateIPC(curves, ways)
		if !alloc.Valid(ways) {
			t.Fatalf("invalid allocation %v", alloc)
		}
		got := 0.0
		for i, w := range alloc {
			got += curves[i][w]
		}
		// Brute force.
		best := -1.0
		var rec func(t, left int, acc float64)
		rec = func(ti, left int, acc float64) {
			if ti == n-1 {
				if left >= 1 {
					if v := acc + curves[ti][left]; v > best {
						best = v
					}
				}
				return
			}
			for a := 1; a <= left-(n-1-ti); a++ {
				rec(ti+1, left-a, acc+curves[ti][a])
			}
		}
		rec(0, ways, 0)
		if math.Abs(got-best) > 1e-9 {
			t.Fatalf("DP %v != brute force %v (alloc %v)", got, best, alloc)
		}
	}
}

func TestFairSlowdownMinimaxImprovesOnThroughput(t *testing.T) {
	// One thread saturates immediately; the other needs many ways. Max
	// throughput may starve neither here, so craft asymmetry: thread 0
	// gains hugely from extra ways, thread 1 moderately. Fairness should
	// never yield a worse max-slowdown than the throughput allocation.
	rng := xrand.New(9)
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(3)
		ways := 16
		curves := monotoneIPCCurves(rng, n, ways)
		maxSlow := func(a cpapart.Allocation) float64 {
			worst := 0.0
			for i, w := range a {
				s := curves[i][ways] / curves[i][w]
				if s > worst {
					worst = s
				}
			}
			return worst
		}
		fair := FairSlowdown{}.AllocateIPC(curves, ways)
		if !fair.Valid(ways) {
			t.Fatalf("invalid fair allocation %v", fair)
		}
		tp := MaxThroughput{}.AllocateIPC(curves, ways)
		if maxSlow(fair) > maxSlow(tp)+1e-9 {
			t.Fatalf("fair allocation %v has worse max slowdown (%v) than throughput %v (%v)",
				fair, maxSlow(fair), tp, maxSlow(tp))
		}
	}
}

func TestFairSlowdownEqualThreadsEqualShares(t *testing.T) {
	ways := 8
	c := make([]float64, ways+1)
	for w := 0; w <= ways; w++ {
		c[w] = float64(w)
	}
	curves := [][]float64{c, c}
	alloc := FairSlowdown{}.AllocateIPC(curves, ways)
	if alloc[0] != alloc[1] {
		t.Fatalf("identical threads got unequal shares: %v", alloc)
	}
}

func TestQoSGuaranteesThreadZero(t *testing.T) {
	ways := 16
	// Thread 0: IPC rises linearly; full-cache IPC = 16.
	c0 := make([]float64, ways+1)
	for w := 0; w <= ways; w++ {
		c0[w] = float64(w)
	}
	// Thread 1: flat (doesn't need cache).
	c1 := make([]float64, ways+1)
	for w := range c1 {
		c1[w] = 5
	}
	q := QoS{MaxSlowdown: 1.25} // thread 0 needs IPC >= 12.8 -> 13 ways
	alloc := q.AllocateIPC([][]float64{c0, c1}, ways)
	if !alloc.Valid(ways) {
		t.Fatalf("invalid allocation %v", alloc)
	}
	if c0[alloc[0]] < c0[ways]/1.25-1e-9 {
		t.Fatalf("QoS violated: thread 0 IPC %v with %d ways, needs %v",
			c0[alloc[0]], alloc[0], c0[ways]/1.25)
	}
}

func TestQoSLeavesWaysForOthers(t *testing.T) {
	ways := 8
	steep := make([]float64, ways+1)
	for w := 0; w <= ways; w++ {
		steep[w] = float64(w * w)
	}
	flat := make([]float64, ways+1)
	for w := range flat {
		flat[w] = 1
	}
	// Even an impossible target must leave one way per other thread.
	q := QoS{MaxSlowdown: 1.0}
	alloc := q.AllocateIPC([][]float64{steep, flat, flat}, ways)
	if !alloc.Valid(ways) {
		t.Fatalf("invalid allocation %v", alloc)
	}
	if alloc[1] < 1 || alloc[2] < 1 {
		t.Fatalf("QoS starved other threads: %v", alloc)
	}
}

func TestQoSBadTargetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for MaxSlowdown < 1")
		}
	}()
	QoS{MaxSlowdown: 0.5}.AllocateIPC(monotoneIPCCurves(xrand.New(1), 2, 8), 8)
}

func TestSingleThreadQoS(t *testing.T) {
	c := monotoneIPCCurves(xrand.New(2), 1, 8)
	alloc := QoS{MaxSlowdown: 1.1}.AllocateIPC(c, 8)
	if alloc[0] != 8 {
		t.Fatalf("single thread should own the cache: %v", alloc)
	}
}
