package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/xrand"
	"repro/pkg/plru"
)

func TestInCacheProfilingConfig(t *testing.T) {
	cfg, _ := ParseAcronym("M-L")
	cfg.InCacheProfiling = true
	if err := cfg.Validate(); err != nil {
		t.Fatalf("in-cache LRU config rejected: %v", err)
	}
	bad, _ := ParseAcronym("M-0.75N")
	bad.InCacheProfiling = true
	if bad.Validate() == nil {
		t.Fatal("in-cache profiling with NRU accepted")
	}
}

func TestInCacheProfilingDrivesPartitioning(t *testing.T) {
	const sets, ways = 8, 8
	l2 := cache.New(l2Config(plru.LRU, 2, sets, ways))
	cfg, _ := ParseAcronym("M-L")
	cfg.SampleRate = 1
	cfg.Interval = 300
	cfg.InCacheProfiling = true
	sys, err := NewSystem(cfg, l2)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Monitors() != nil {
		t.Fatal("ATD monitors built despite in-cache profiling")
	}
	rng := xrand.New(4)
	stream := uint64(1 << 30)
	var cycle uint64
	for i := 0; i < 6000; i++ {
		hot := uint64(rng.Intn(sets*2)) * 64
		l2.Access(0, hot) // observer feeds the profiler inside the cache
		l2.Access(1, stream)
		stream += 64
		cycle += 10
		sys.Tick(cycle)
	}
	alloc := sys.Allocation()
	if !alloc.Valid(ways) {
		t.Fatalf("invalid allocation %v", alloc)
	}
	if alloc[0] <= alloc[1] {
		t.Fatalf("in-cache profiling failed to favor the reuse thread: %v", alloc)
	}
}
