package cpu

import (
	"math"
	"testing"

	"repro/internal/trace"
)

// perfectL2 always hits.
type perfectL2 struct{ accesses, writebacks uint64 }

func (p *perfectL2) Access(core int, addr uint64, write bool) bool {
	p.accesses++
	return true
}
func (p *perfectL2) Writeback(core int, addr uint64) { p.writebacks++ }

// missL2 always misses.
type missL2 struct{}

func (missL2) Access(core int, addr uint64, write bool) bool { return false }
func (missL2) Writeback(core int, addr uint64)               {}

func computeProfile(baseIPC float64) trace.Profile {
	return trace.Profile{
		Name: "compute", BaseIPC: baseIPC, MemRatio: 0.05, BranchRatio: 0.01,
		BranchBias: 1.0, MLPOverlap: 0,
		Phases: []trace.Phase{{Insts: 1 << 40, HotLines: 8, HotWeight: 1}},
	}
}

func memProfile(overlap float64) trace.Profile {
	return trace.Profile{
		Name: "memory", BaseIPC: 2, MemRatio: 0.4, BranchRatio: 0,
		BranchBias: 0.5, MLPOverlap: overlap,
		Phases: []trace.Phase{{Insts: 1 << 40, ColdWeight: 1}},
	}
}

func runCore(t *testing.T, prof trace.Profile, l2 SharedL2, insts uint64) *Core {
	t.Helper()
	c := New(0, prof, 11, DefaultL1Config(128), DefaultParams(), l2)
	for c.Insts() < insts {
		c.Step()
	}
	return c
}

func TestComputeBoundIPCNearBase(t *testing.T) {
	// A tiny working set with perfectly biased branches should run near
	// its base IPC.
	c := runCore(t, computeProfile(2.0), &perfectL2{}, 200000)
	if ipc := c.IPC(); math.Abs(ipc-2.0) > 0.15 {
		t.Fatalf("compute-bound IPC = %.3f, want ~2.0", ipc)
	}
}

func TestMemoryBoundIPCDegrades(t *testing.T) {
	// Cold accesses with an always-missing L2 pay (11+250)*(1-overlap)
	// per miss; IPC must be far below base.
	c := runCore(t, memProfile(0), missL2{}, 100000)
	if ipc := c.IPC(); ipc > 0.05 {
		t.Fatalf("all-miss IPC = %.3f, want tiny", ipc)
	}
}

func TestMLPOverlapHidesLatency(t *testing.T) {
	slow := runCore(t, memProfile(0), missL2{}, 100000)
	fast := runCore(t, memProfile(0.8), missL2{}, 100000)
	if fast.IPC() <= slow.IPC()*2 {
		t.Fatalf("80%% overlap IPC %.4f not much better than 0%% overlap %.4f",
			fast.IPC(), slow.IPC())
	}
}

func TestL1FiltersL2Traffic(t *testing.T) {
	// A working set that fits in L1 should reach the L2 only for cold
	// fills.
	l2 := &perfectL2{}
	c := runCore(t, computeProfile(2.0), l2, 200000)
	if c.Stats().L1Accesses == 0 {
		t.Fatal("no L1 accesses recorded")
	}
	missRate := float64(c.Stats().L1Misses) / float64(c.Stats().L1Accesses)
	if missRate > 0.01 {
		t.Fatalf("L1 miss rate %.4f for an L1-resident working set", missRate)
	}
	if l2.accesses != c.Stats().L2Accesses {
		t.Fatalf("L2 access accounting mismatch: %d vs %d", l2.accesses, c.Stats().L2Accesses)
	}
}

func TestExactCycleAccounting(t *testing.T) {
	// With deterministic parameters, total cycles must equal
	// insts/BaseIPC + misses*(11+250)*(1-overlap) exactly.
	prof := memProfile(0.5)
	c := runCore(t, prof, missL2{}, 50000)
	st := c.Stats()
	want := float64(st.Insts)/prof.BaseIPC +
		float64(st.L2Accesses)*(11+250)*0.5
	if math.Abs(c.Cycles()-want) > 1e-6*want {
		t.Fatalf("cycles = %.2f, want %.2f", c.Cycles(), want)
	}
}

func TestBranchPenaltiesCharged(t *testing.T) {
	// Random branches (bias 0.5) mispredict ~half the time; cycles must
	// include the misprediction penalty.
	prof := trace.Profile{
		Name: "branchy", BaseIPC: 2, MemRatio: 0.01, BranchRatio: 0.3,
		BranchBias: 0.5, MLPOverlap: 0,
		Phases: []trace.Phase{{Insts: 1 << 40, HotLines: 8, HotWeight: 1}},
	}
	c := runCore(t, prof, &perfectL2{}, 100000)
	st := c.Stats()
	if st.Branches == 0 {
		t.Fatal("no branches")
	}
	mispredictRate := float64(st.Mispredicts) / float64(st.Branches)
	if mispredictRate < 0.3 {
		t.Fatalf("random branches mispredicted only %.3f", mispredictRate)
	}
	// IPC should be visibly below base due to branch penalties.
	if c.IPC() > 1.5 {
		t.Fatalf("IPC %.3f despite heavy mispredicts", c.IPC())
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := runCore(t, memProfile(0.3), missL2{}, 30000)
	b := runCore(t, memProfile(0.3), missL2{}, 30000)
	if a.Cycles() != b.Cycles() || a.Stats() != b.Stats() {
		t.Fatal("identical configurations diverged")
	}
}
