package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/xrand"
	"repro/pkg/plru"
)

func TestGoalString(t *testing.T) {
	for g, want := range map[Goal]string{
		GoalMinMisses: "MinMisses", GoalThroughput: "Throughput",
		GoalFair: "Fair", GoalQoS: "QoS",
	} {
		if g.String() != want {
			t.Errorf("Goal %d -> %q", int(g), g.String())
		}
	}
}

func TestQoSConfigValidation(t *testing.T) {
	cfg, _ := ParseAcronym("M-L")
	cfg.Goal = GoalQoS
	cfg.QoSTarget = 0.5
	if cfg.Validate() == nil {
		t.Fatal("QoSTarget < 1 accepted")
	}
	cfg.QoSTarget = 1.2
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid QoS config rejected: %v", err)
	}
}

// fakePerf supplies fixed per-core interval stats.
type fakePerf struct {
	insts  []uint64
	cycles []float64
}

func (f *fakePerf) PerfSince(core int) (uint64, float64) {
	return f.insts[core], f.cycles[core]
}

// driveGoal runs a two-thread scenario (core 0 reuses, core 1 streams)
// under a given goal and returns the final allocation.
func driveGoal(t *testing.T, goal Goal, qos float64) []int {
	t.Helper()
	const sets, ways = 8, 8
	l2 := cache.New(l2Config(plru.LRU, 2, sets, ways))
	cfg, _ := ParseAcronym("M-L")
	cfg.SampleRate = 1
	cfg.Interval = 300
	cfg.Goal = goal
	cfg.QoSTarget = qos
	sys, err := NewSystem(cfg, l2)
	if err != nil {
		t.Fatal(err)
	}
	// Perf feedback: core 0 is slow (memory bound), core 1 fast.
	sys.SetPerfSource(&fakePerf{
		insts:  []uint64{10000, 10000},
		cycles: []float64{40000, 10000},
	})
	rng := xrand.New(2)
	stream := uint64(1 << 30)
	var cycle uint64
	for i := 0; i < 4000; i++ {
		hot := uint64(rng.Intn(sets*4)) * 64
		sys.OnAccess(0, hot)
		l2.Access(0, hot)
		sys.OnAccess(1, stream)
		l2.Access(1, stream)
		stream += 64
		cycle += 10
		sys.Tick(cycle)
	}
	return sys.Allocation()
}

func TestGoalThroughputFavorsReuseThread(t *testing.T) {
	alloc := driveGoal(t, GoalThroughput, 0)
	if alloc[0] <= alloc[1] {
		t.Fatalf("throughput goal gave the streamer more ways: %v", alloc)
	}
}

func TestGoalFairProducesValidAllocation(t *testing.T) {
	alloc := driveGoal(t, GoalFair, 0)
	if alloc[0]+alloc[1] != 8 || alloc[0] < 1 || alloc[1] < 1 {
		t.Fatalf("fair goal allocation invalid: %v", alloc)
	}
}

func TestGoalQoSProducesValidAllocation(t *testing.T) {
	alloc := driveGoal(t, GoalQoS, 1.05)
	if alloc[0]+alloc[1] != 8 || alloc[0] < 1 || alloc[1] < 1 {
		t.Fatalf("QoS goal allocation invalid: %v", alloc)
	}
}

func TestGoalWithoutPerfSourceFallsBack(t *testing.T) {
	// No PerfSource: IPC goals silently use MinMisses (documented).
	const sets, ways = 4, 8
	l2 := cache.New(l2Config(plru.LRU, 2, sets, ways))
	cfg, _ := ParseAcronym("M-L")
	cfg.SampleRate = 1
	cfg.Interval = 100
	cfg.Goal = GoalThroughput
	sys, err := NewSystem(cfg, l2)
	if err != nil {
		t.Fatal(err)
	}
	sys.Tick(100)
	if !sys.Allocation().Valid(ways) {
		t.Fatalf("fallback allocation invalid: %v", sys.Allocation())
	}
}

func TestRoundToBuddy(t *testing.T) {
	cases := []struct {
		ideal []int
		ways  int
	}{
		{[]int{10, 6}, 16},
		{[]int{13, 1, 1, 1}, 16},
		{[]int{5, 5, 6}, 16},
		{[]int{1, 1}, 2},
		{[]int{3, 3, 1, 1}, 8},
	}
	for _, c := range cases {
		got := roundToBuddy(c.ideal, c.ways)
		if !got.Valid(c.ways) {
			t.Errorf("roundToBuddy(%v, %d) = %v invalid", c.ideal, c.ways, got)
			continue
		}
		for _, s := range got {
			if s&(s-1) != 0 {
				t.Errorf("roundToBuddy(%v, %d) = %v has non-power-of-two share",
					c.ideal, c.ways, got)
			}
		}
	}
}

func TestGoalBTUpdownUsesBuddyShares(t *testing.T) {
	const sets, ways = 8, 8
	l2 := cache.New(l2Config(plru.BT, 2, sets, ways))
	cfg, _ := ParseAcronym("M-BT")
	cfg.SampleRate = 1
	cfg.Interval = 300
	cfg.Goal = GoalThroughput
	sys, err := NewSystem(cfg, l2)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetPerfSource(&fakePerf{
		insts:  []uint64{10000, 10000},
		cycles: []float64{40000, 10000},
	})
	sys.Tick(300)
	for _, s := range sys.Allocation() {
		if s&(s-1) != 0 {
			t.Fatalf("BT goal allocation %v not buddy-constrained", sys.Allocation())
		}
	}
}
