package trace

import (
	"math"
	"testing"

	"repro/internal/profiling"
	"repro/pkg/plru"
)

func simpleProfile() Profile {
	return Profile{
		Name:        "toy",
		BaseIPC:     2.0,
		MemRatio:    0.3,
		BranchRatio: 0.1,
		BranchBias:  0.9,
		MLPOverlap:  0.4,
		Phases: []Phase{{
			Insts:        100000,
			HotLines:     64,
			HotWeight:    0.7,
			StreamLines:  1024,
			StreamWeight: 0.2,
			ColdWeight:   0.1,
		}},
	}
}

func TestProfileValidate(t *testing.T) {
	good := simpleProfile()
	if err := good.Validate(); err != nil {
		t.Fatalf("good profile rejected: %v", err)
	}
	cases := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.BaseIPC = 0 },
		func(p *Profile) { p.MemRatio = 0 },
		func(p *Profile) { p.MemRatio = 0.9; p.BranchRatio = 0.2 },
		func(p *Profile) { p.BranchBias = 0.3 },
		func(p *Profile) { p.MLPOverlap = 1.0 },
		func(p *Profile) { p.Phases = nil },
		func(p *Profile) { p.Phases[0].Insts = 0 },
		func(p *Profile) { p.Phases[0].HotWeight = 0; p.Phases[0].StreamWeight = 0; p.Phases[0].ColdWeight = 0 },
		func(p *Profile) { p.Phases[0].HotLines = 0 },
	}
	for i, mutate := range cases {
		p := simpleProfile()
		mutate(&p)
		if p.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(simpleProfile(), 0, 42, 64)
	b := NewGenerator(simpleProfile(), 0, 42, 64)
	for i := 0; i < 5000; i++ {
		ea, eb := a.Next(), b.Next()
		if ea != eb {
			t.Fatalf("streams diverged at event %d: %+v vs %+v", i, ea, eb)
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	a := NewGenerator(simpleProfile(), 0, 1, 64)
	b := NewGenerator(simpleProfile(), 0, 2, 64)
	same := 0
	for i := 0; i < 200; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same == 200 {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestEventRates(t *testing.T) {
	g := NewGenerator(simpleProfile(), 0, 7, 64)
	var mem, br, insts uint64
	for i := 0; i < 200000; i++ {
		e := g.Next()
		insts += uint64(e.Insts)
		if e.Kind == Mem {
			mem++
		} else {
			br++
		}
	}
	memRate := float64(mem) / float64(insts)
	brRate := float64(br) / float64(insts)
	if math.Abs(memRate-0.3) > 0.01 {
		t.Errorf("memory rate %.3f, want ~0.30", memRate)
	}
	if math.Abs(brRate-0.1) > 0.01 {
		t.Errorf("branch rate %.3f, want ~0.10", brRate)
	}
	if insts != g.Insts() {
		t.Errorf("Insts() = %d, events summed to %d", g.Insts(), insts)
	}
}

func TestThreadAddressSpacesDisjoint(t *testing.T) {
	g0 := NewGenerator(simpleProfile(), 0, 5, 64)
	g1 := NewGenerator(simpleProfile(), 1, 5, 64)
	seen0 := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		if e := g0.Next(); e.Kind == Mem {
			seen0[e.Addr] = true
		}
	}
	for i := 0; i < 5000; i++ {
		if e := g1.Next(); e.Kind == Mem && seen0[e.Addr] {
			t.Fatal("threads shared a data address")
		}
	}
}

func TestBranchStreamBias(t *testing.T) {
	// With bias 0.95, per-PC outcomes should be strongly skewed: overall
	// takenness can hover near 0.5 (half the PCs biased each way) but a
	// per-PC majority vote should be right ~95% of the time.
	p := simpleProfile()
	p.BranchBias = 0.95
	g := NewGenerator(p, 0, 11, 64)
	taken := map[uint64]int{}
	total := map[uint64]int{}
	for i := 0; i < 300000; i++ {
		e := g.Next()
		if e.Kind != Branch {
			continue
		}
		total[e.Addr]++
		if e.Taken {
			taken[e.Addr]++
		}
	}
	agree, n := 0, 0
	for pc, tot := range total {
		if tot < 50 {
			continue
		}
		k := taken[pc]
		maj := k
		if tot-k > k {
			maj = tot - k
		}
		agree += maj
		n += tot
	}
	if n == 0 {
		t.Fatal("no branch statistics gathered")
	}
	if rate := float64(agree) / float64(n); rate < 0.92 {
		t.Fatalf("per-PC majority agreement %.3f, want >= 0.92", rate)
	}
}

func TestColdAccessesNeverRepeat(t *testing.T) {
	p := Profile{
		Name: "cold", BaseIPC: 1, MemRatio: 0.5, BranchRatio: 0,
		BranchBias: 0.5, MLPOverlap: 0,
		Phases: []Phase{{Insts: 1000, ColdWeight: 1}},
	}
	g := NewGenerator(p, 0, 3, 64)
	seen := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		e := g.Next()
		if e.Kind != Mem {
			continue
		}
		if seen[e.Addr] {
			t.Fatalf("cold address %#x repeated", e.Addr)
		}
		seen[e.Addr] = true
	}
}

func TestStreamingIsSequential(t *testing.T) {
	p := Profile{
		Name: "stream", BaseIPC: 1, MemRatio: 0.5, BranchRatio: 0,
		BranchBias: 0.5, MLPOverlap: 0,
		Phases: []Phase{{Insts: 1000, StreamLines: 1 << 20, StreamWeight: 1}},
	}
	g := NewGenerator(p, 0, 3, 64)
	var prev uint64
	first := true
	for i := 0; i < 1000; i++ {
		e := g.Next()
		if e.Kind != Mem {
			continue
		}
		if !first && e.Addr != prev+64 {
			t.Fatalf("stream not sequential: %#x after %#x", e.Addr, prev)
		}
		prev = e.Addr
		first = false
	}
}

func TestPhaseSwitchChangesBehavior(t *testing.T) {
	// Two phases: tiny hot set, then pure cold. The miss rate measured in
	// an LRU monitor must jump between phases.
	p := Profile{
		Name: "phased", BaseIPC: 1, MemRatio: 0.5, BranchRatio: 0,
		BranchBias: 0.5, MLPOverlap: 0,
		Phases: []Phase{
			{Insts: 40000, HotLines: 16, HotWeight: 1},
			{Insts: 40000, ColdWeight: 1},
		},
	}
	g := NewGenerator(p, 0, 9, 64)
	missRateOver := func(events int) float64 {
		m := profiling.NewMonitor(profiling.Config{
			L2Sets: 16, Ways: 8, LineBytes: 64, SampleRate: 1,
			Kind: plru.LRU,
		})
		for i := 0; i < events; i++ {
			e := g.Next()
			if e.Kind == Mem {
				m.Observe(e.Addr)
			}
		}
		return float64(m.SDH().Misses(8)) / float64(m.Observed())
	}
	// Phase 1 lasts 40k instructions; with MemRatio 0.5 and no branches,
	// events average 2 instructions, so phase 1 spans ~20k events.
	hotRate := missRateOver(15000) // safely inside phase 1
	missRateOver(7000)             // skip across the phase boundary
	coldRate := missRateOver(15000)
	if hotRate > 0.05 {
		t.Errorf("hot phase miss rate %.3f, want small", hotRate)
	}
	if coldRate < 0.9 {
		t.Errorf("cold phase miss rate %.3f, want ~1", coldRate)
	}
}

// TestGeneratedSDHMatchesMixture is the load-bearing test for the whole
// substitution argument: the generator's stack-distance profile, measured
// through the real profiling monitor, must reflect the configured working
// sets — the hot set must fit in few ways and adding the mid set must
// shift the knee outward.
func TestGeneratedSDHMatchesMixture(t *testing.T) {
	const sets = 64
	mk := func(hot, mid int, hw, mw float64) *profiling.Monitor {
		p := Profile{
			Name: "m", BaseIPC: 1, MemRatio: 0.5, BranchRatio: 0,
			BranchBias: 0.5, MLPOverlap: 0,
			Phases: []Phase{{Insts: 1 << 40, HotLines: hot, HotWeight: hw,
				MidLines: mid, MidWeight: mw}},
		}
		g := NewGenerator(p, 0, 21, 64)
		m := profiling.NewMonitor(profiling.Config{
			L2Sets: sets, Ways: 16, LineBytes: 64, SampleRate: 1,
			Kind: plru.LRU,
		})
		for n := 0; n < 400000; {
			e := g.Next()
			if e.Kind == Mem {
				m.Observe(e.Addr)
				n++
			}
		}
		return m
	}
	// Hot set of 2 lines/set: knee at ~2-3 ways.
	m1 := mk(sets*2, 0, 1, 0)
	curve := m1.SDH().MissCurve()
	tot := float64(m1.Observed())
	if r := float64(curve[4]) / tot; r > 0.05 {
		t.Errorf("2-line/set hot set: miss ratio at 4 ways %.3f, want < 0.05", r)
	}
	if r := float64(curve[1]) / tot; r < 0.3 {
		t.Errorf("2-line/set hot set: miss ratio at 1 way %.3f, want substantial", r)
	}
	// Adding a mid set of 8 lines/set moves the knee outward.
	m2 := mk(sets*2, sets*8, 0.6, 0.4)
	curve2 := m2.SDH().MissCurve()
	tot2 := float64(m2.Observed())
	at4 := float64(curve2[4]) / tot2
	at12 := float64(curve2[12]) / tot2
	if at4 < 0.1 {
		t.Errorf("mid set should still miss at 4 ways, got %.3f", at4)
	}
	if at12 > 0.05 {
		t.Errorf("full mixture should fit in 12 ways, got %.3f", at12)
	}
}
