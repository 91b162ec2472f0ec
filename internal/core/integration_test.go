package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/xrand"
	"repro/pkg/cpapart"
	"repro/pkg/plru"
)

// TestOccupancyConvergesToAllocation drives a fully saturated cache with
// a frozen partition and verifies that, in steady state, each core's
// per-set occupancy converges to its allocated share — the point of the
// enforcement logic.
func TestOccupancyConvergesToAllocation(t *testing.T) {
	for _, tc := range []struct {
		acr  string
		kind plru.Kind
	}{
		{"M-L", plru.LRU},
		{"C-L", plru.LRU},
		{"M-0.75N", plru.NRU},
		{"M-BT", plru.BT},
	} {
		const sets, ways = 8, 8
		l2 := cache.New(l2Config(tc.kind, 2, sets, ways))
		cfg, err := ParseAcronym(tc.acr)
		if err != nil {
			t.Fatal(err)
		}
		cfg.SampleRate = 1
		cfg.Interval = 1 << 62 // freeze the initial fair 4/4 split
		sys, err := NewSystem(cfg, l2)
		if err != nil {
			t.Fatal(err)
		}
		alloc := sys.Allocation()

		// Both cores stream misses forever (distinct address spaces).
		rng := xrand.New(5)
		next := [2]uint64{0, 1 << 40}
		for i := 0; i < 40000; i++ {
			c := rng.Intn(2)
			l2.Access(c, next[c])
			next[c] += 64
		}
		for s := 0; s < sets; s++ {
			for c := 0; c < 2; c++ {
				got := l2.OwnedCount(s, c)
				if got != alloc[c] {
					t.Errorf("%s: set %d core %d owns %d lines, allocation %d",
						tc.acr, s, c, got, alloc[c])
				}
			}
		}
	}
}

// TestHitsOutsidePartitionStillAllowed verifies the paper's rule that a
// thread may HIT in any way — only evictions are restricted.
func TestHitsOutsidePartitionStillAllowed(t *testing.T) {
	const sets, ways = 4, 8
	l2 := cache.New(l2Config(plru.LRU, 2, sets, ways))
	cfg, _ := ParseAcronym("M-L")
	cfg.SampleRate = 1
	cfg.Interval = 1 << 62
	if _, err := NewSystem(cfg, l2); err != nil {
		t.Fatal(err)
	}
	// Core 0 fills a line; it lands inside core 0's mask {0..3}.
	addr := uint64(0)
	l2.Access(0, addr)
	// Core 1 must be able to hit that line even though it is outside
	// core 1's mask.
	if r := l2.Access(1, addr); !r.Hit {
		t.Fatal("cross-partition hit was denied")
	}
}

// TestRepartitionAdaptsToPhaseChange verifies the dynamic part of the
// CPA: when a thread's working set grows mid-run, the next repartitions
// shift ways toward it.
func TestRepartitionAdaptsToPhaseChange(t *testing.T) {
	const sets, ways = 16, 16
	l2 := cache.New(l2Config(plru.LRU, 2, sets, ways))
	cfg, _ := ParseAcronym("M-L")
	cfg.SampleRate = 1
	cfg.Interval = 3000
	sys, err := NewSystem(cfg, l2)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(9)
	var cycle uint64

	run := func(hotLines0, hotLines1, iters int) cpapart.Allocation {
		for i := 0; i < iters; i++ {
			a0 := uint64(rng.Intn(hotLines0)) * 64
			a1 := uint64(1<<40) + uint64(rng.Intn(hotLines1))*64
			sys.OnAccess(0, a0)
			l2.Access(0, a0)
			sys.OnAccess(1, a1)
			l2.Access(1, a1)
			cycle += 8
			sys.Tick(cycle)
		}
		return sys.Allocation()
	}

	// Phase 1: core 0 needs most of the cache (12 lines/set), core 1
	// almost nothing (1 line/set).
	a1 := run(sets*12, sets*1, 8000)
	if a1[0] <= a1[1] {
		t.Fatalf("phase 1 allocation %v should favor core 0", a1)
	}
	// Phase 2: demands flip.
	a2 := run(sets*1, sets*12, 16000)
	if a2[1] <= a2[0] {
		t.Fatalf("phase 2 allocation %v should favor core 1 (phase 1 gave %v)", a2, a1)
	}
}

// TestEnforcementIsolationUnderAdversary: a thrashing adversary must not
// reduce a protected thread's per-set occupancy below its allocation
// once steady state is reached (masks mode).
func TestEnforcementIsolationUnderAdversary(t *testing.T) {
	const sets, ways = 8, 8
	l2 := cache.New(l2Config(plru.LRU, 2, sets, ways))
	cfg, _ := ParseAcronym("M-L")
	cfg.SampleRate = 1
	cfg.Interval = 1 << 62
	sys, err := NewSystem(cfg, l2)
	if err != nil {
		t.Fatal(err)
	}
	alloc := sys.Allocation() // fair 4/4

	// Core 0: small loop that fits its share (2 lines per set).
	// Core 1: adversarial streamer.
	stream := uint64(1 << 40)
	for i := 0; i < 30000; i++ {
		loopAddr := uint64(i%(sets*2)) * 64
		l2.Access(0, loopAddr)
		l2.Access(1, stream)
		stream += 64
	}
	// Core 0's lines must all still be present (its 2 lines/set fit the
	// 4-way share and core 1 cannot evict them).
	for i := 0; i < sets*2; i++ {
		if !l2.Contains(uint64(i) * 64) {
			t.Fatalf("adversary evicted protected line %d despite masks (alloc %v)", i, alloc)
		}
	}
}
