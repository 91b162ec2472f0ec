package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/xrand"
	"repro/pkg/cpapart"
	"repro/pkg/plru"
)

func l2Config(kind plru.Kind, cores, sets, ways int) cache.Config {
	return cache.Config{
		Name:      "L2",
		SizeBytes: sets * ways * 64,
		LineBytes: 64,
		Ways:      ways,
		Policy:    kind,
		Cores:     cores,
		Seed:      9,
	}
}

func mustSystem(t *testing.T, acr string, l2 *cache.Cache, interval uint64) *System {
	t.Helper()
	cfg, err := ParseAcronym(acr)
	if err != nil {
		t.Fatalf("ParseAcronym(%q): %v", acr, err)
	}
	cfg.SampleRate = 1
	cfg.Interval = interval
	sys, err := NewSystem(cfg, l2)
	if err != nil {
		t.Fatalf("NewSystem(%q): %v", acr, err)
	}
	return sys
}

func TestParseAcronyms(t *testing.T) {
	cases := []struct {
		in     string
		enf    Enforcement
		policy plru.Kind
		scale  float64
	}{
		{"C-L", EnforceCounters, plru.LRU, 0},
		{"M-L", EnforceMasks, plru.LRU, 0},
		{"M-1.0N", EnforceMasks, plru.NRU, 1.0},
		{"M-0.75N", EnforceMasks, plru.NRU, 0.75},
		{"M-0.5N", EnforceMasks, plru.NRU, 0.5},
		{"M-BT", EnforceUpDown, plru.BT, 0},
	}
	for _, c := range cases {
		cfg, err := ParseAcronym(c.in)
		if err != nil {
			t.Fatalf("ParseAcronym(%q): %v", c.in, err)
		}
		if cfg.Enforcement != c.enf || cfg.Policy != c.policy {
			t.Errorf("%q: got %v/%v", c.in, cfg.Enforcement, cfg.Policy)
		}
		if c.policy == plru.NRU && cfg.NRUScale != c.scale {
			t.Errorf("%q: scale %v, want %v", c.in, cfg.NRUScale, c.scale)
		}
		if cfg.Interval != 1_000_000 || cfg.SampleRate != 32 {
			t.Errorf("%q: paper defaults not applied", c.in)
		}
	}
	for _, bad := range []string{"", "X-L", "M-", "M-2Q", "CL"} {
		if _, err := ParseAcronym(bad); err == nil {
			t.Errorf("ParseAcronym(%q) accepted", bad)
		}
	}
}

func TestStandardConfigsOrder(t *testing.T) {
	cfgs := StandardConfigs()
	want := []string{"C-L", "M-L", "M-1.0N", "M-0.75N", "M-0.5N", "M-BT"}
	if len(cfgs) != len(want) {
		t.Fatalf("got %d configs", len(cfgs))
	}
	for i, w := range want {
		if cfgs[i].Acronym != w {
			t.Errorf("config %d = %q, want %q", i, cfgs[i].Acronym, w)
		}
	}
}

func TestValidateRejectsMismatches(t *testing.T) {
	if (Config{Enforcement: EnforceUpDown, Policy: plru.LRU}).Validate() == nil {
		t.Error("up/down with LRU accepted")
	}
	bad := Config{Enforcement: EnforceMasks, Policy: plru.NRU, NRUScale: 2,
		SampleRate: 1, Interval: 10}
	if bad.Validate() == nil {
		t.Error("NRU scale 2 accepted")
	}
	l2 := cache.New(l2Config(plru.LRU, 2, 4, 8))
	cfg, _ := ParseAcronym("M-BT")
	if _, err := NewSystem(cfg, l2); err == nil {
		t.Error("policy mismatch between config and L2 accepted")
	}
}

func TestInitialPartitionIsFair(t *testing.T) {
	l2 := cache.New(l2Config(plru.LRU, 2, 4, 8))
	sys := mustSystem(t, "M-L", l2, 1000)
	alloc := sys.Allocation()
	if alloc[0] != 4 || alloc[1] != 4 {
		t.Fatalf("initial allocation %v, want [4 4]", alloc)
	}
}

func TestTickRepartitionsAtBoundary(t *testing.T) {
	l2 := cache.New(l2Config(plru.LRU, 2, 4, 8))
	sys := mustSystem(t, "M-L", l2, 1000)
	sys.Tick(999)
	if sys.Repartitions() != 0 {
		t.Fatal("repartitioned before boundary")
	}
	sys.Tick(1000)
	if sys.Repartitions() != 1 {
		t.Fatal("did not repartition at boundary")
	}
	sys.Tick(1500)
	if sys.Repartitions() != 1 {
		t.Fatal("spurious repartition inside interval")
	}
	sys.Tick(5000) // skipped several boundaries -> single catch-up repartition
	if sys.Repartitions() != 2 {
		t.Fatalf("repartitions = %d, want 2", sys.Repartitions())
	}
	sys.Tick(6000)
	if sys.Repartitions() != 3 {
		t.Fatalf("repartitions = %d, want 3", sys.Repartitions())
	}
}

// driveWorkload runs a simple two-thread scenario: core 0 re-uses a small
// hot set, core 1 streams. Returns the system after `n` accesses per core.
func driveWorkload(t *testing.T, acr string, kind plru.Kind, n int) (*cache.Cache, *System) {
	t.Helper()
	const sets, ways = 8, 8
	l2 := cache.New(l2Config(kind, 2, sets, ways))
	sys := mustSystem(t, acr, l2, 200)
	rng := xrand.New(1)
	var cycle uint64
	stream := uint64(1 << 30)
	for i := 0; i < n; i++ {
		// Core 0: hot working set of 2 lines per set.
		hot := uint64(rng.Intn(sets*2)) * 64
		sys.OnAccess(0, hot)
		l2.Access(0, hot)
		// Core 1: pure streaming, never reuses.
		sys.OnAccess(1, stream)
		l2.Access(1, stream)
		stream += 64
		cycle += 10
		sys.Tick(cycle)
	}
	return l2, sys
}

func TestMinMissesStarvesStreamingThread(t *testing.T) {
	// The streaming thread's miss curve is flat, so MinMisses should give
	// it the minimum single way and the reuse thread the rest.
	for _, tc := range []struct {
		acr  string
		kind plru.Kind
	}{
		{"M-L", plru.LRU},
		{"C-L", plru.LRU},
		{"M-0.75N", plru.NRU},
	} {
		_, sys := driveWorkload(t, tc.acr, tc.kind, 3000)
		alloc := sys.Allocation()
		if alloc[1] > 2 {
			t.Errorf("%s: streaming thread got %d ways (%v), want <= 2", tc.acr, alloc[1], alloc)
		}
		if alloc[0] < alloc[1] {
			t.Errorf("%s: reuse thread got fewer ways than streamer: %v", tc.acr, alloc)
		}
	}
	// M-BT cannot express an asymmetric 2-thread split of 8 ways: the
	// only buddy composition is [4 4] (the coarseness docs/ARCHITECTURE.md
	// describes under Layer 2). Verify exactly that.
	_, sys := driveWorkload(t, "M-BT", plru.BT, 3000)
	alloc := sys.Allocation()
	if alloc[0] != 4 || alloc[1] != 4 {
		t.Errorf("M-BT: allocation %v, want the forced [4 4]", alloc)
	}
}

func TestMaskEnforcementConfinesEvictions(t *testing.T) {
	const sets, ways = 4, 8
	l2 := cache.New(l2Config(plru.LRU, 2, sets, ways))
	sys := mustSystem(t, "M-L", l2, 100)
	// Fill the cache completely with core 0's lines.
	for s := 0; s < sets; s++ {
		for w := 0; w < ways; w++ {
			l2.Access(0, uint64(w*sets+s)*64)
		}
	}
	sys.Repartition(0)
	masks := sys.Masks()
	// Now every miss by core 1 must evict within masks[1].
	next := uint64(1 << 20)
	for i := 0; i < 200; i++ {
		r := l2.Access(1, next)
		if !r.Hit && !masks[1].Has(r.Way) {
			t.Fatalf("core 1 filled way %d outside its mask %v", r.Way, masks[1])
		}
		next += 64
	}
}

func TestUpDownEnforcementConfinesEvictions(t *testing.T) {
	const sets, ways = 4, 8
	l2 := cache.New(l2Config(plru.BT, 2, sets, ways))
	sys := mustSystem(t, "M-BT", l2, 100)
	for s := 0; s < sets; s++ {
		for w := 0; w < ways; w++ {
			l2.Access(0, uint64(w*sets+s)*64)
		}
	}
	sys.Repartition(0)
	masks := sys.Masks()
	next := uint64(1 << 20)
	for i := 0; i < 200; i++ {
		r := l2.Access(1, next)
		if !r.Hit && !masks[1].Has(r.Way) {
			t.Fatalf("core 1 filled way %d outside its block %v", r.Way, masks[1])
		}
		next += 64
	}
}

func TestUpDownAllocationsArePowersOfTwo(t *testing.T) {
	_, sys := driveWorkload(t, "M-BT", plru.BT, 2000)
	for _, w := range sys.Allocation() {
		if w&(w-1) != 0 {
			t.Fatalf("BT allocation %v contains non-power-of-two share", sys.Allocation())
		}
	}
}

func TestCounterEnforcementQuotaBehavior(t *testing.T) {
	const sets, ways = 1, 4
	l2 := cache.New(l2Config(plru.LRU, 2, sets, ways))
	cfg, _ := ParseAcronym("C-L")
	cfg.SampleRate = 1
	cfg.Interval = 1 << 62 // never repartition: keep the fair 2/2 split
	sys, err := NewSystem(cfg, l2)
	if err != nil {
		t.Fatal(err)
	}
	_ = sys
	// Core 0 fills the whole set (4 lines; quota is 2).
	for i := 0; i < 4; i++ {
		l2.Access(0, uint64(i*sets)*64)
	}
	// Core 1 misses: it is under quota, so it must steal from core 0.
	r := l2.Access(1, uint64(100*sets)*64)
	if r.Hit || !r.Evicted || r.EvictedOwner != 0 {
		t.Fatalf("under-quota miss should evict core 0's line: %+v", r)
	}
	// Another core 1 miss: still under/at quota boundary -> steal again.
	r = l2.Access(1, uint64(101*sets)*64)
	if r.EvictedOwner != 0 {
		t.Fatalf("second miss should still evict core 0 (owner %d)", r.EvictedOwner)
	}
	// Core 1 now owns 2 lines (its quota). Further misses replace its own.
	r = l2.Access(1, uint64(102*sets)*64)
	if r.EvictedOwner != 1 {
		t.Fatalf("at-quota miss must self-replace, evicted owner %d", r.EvictedOwner)
	}
}

func TestNonPartitionedSystemIsTransparent(t *testing.T) {
	l2 := cache.New(l2Config(plru.LRU, 2, 4, 8))
	sys, err := NewSystem(Config{Acronym: "none", Enforcement: EnforceNone,
		Policy: plru.LRU}, l2)
	if err != nil {
		t.Fatal(err)
	}
	sys.OnAccess(0, 0) // must not panic with no monitors
	sys.Tick(1 << 40)  // must not repartition
	if sys.Repartitions() != 0 {
		t.Fatal("non-partitioned system repartitioned")
	}
	if sys.Allocation() != nil {
		t.Fatal("non-partitioned system has an allocation")
	}
}

func TestRepartitionCallback(t *testing.T) {
	l2 := cache.New(l2Config(plru.LRU, 2, 4, 8))
	sys := mustSystem(t, "M-L", l2, 100)
	var calls int
	var lastAlloc cpapart.Allocation
	sys.OnRepartition = func(cycle uint64, alloc cpapart.Allocation) {
		calls++
		lastAlloc = alloc
	}
	sys.Tick(100)
	sys.Tick(200)
	if calls != 2 {
		t.Fatalf("callback called %d times, want 2", calls)
	}
	if !lastAlloc.Valid(8) {
		t.Fatalf("callback allocation invalid: %v", lastAlloc)
	}
}

func TestSDHHalvedAtBoundary(t *testing.T) {
	l2 := cache.New(l2Config(plru.LRU, 2, 4, 8))
	sys := mustSystem(t, "M-L", l2, 100)
	for i := 0; i < 64; i++ {
		sys.OnAccess(0, uint64(i)*64*4) // all map to sampled sets (rate 1)
	}
	before := sys.Monitors()[0].SDH().Total()
	if before == 0 {
		t.Fatal("no profile recorded")
	}
	sys.Tick(100)
	after := sys.Monitors()[0].SDH().Total()
	if after >= before {
		t.Fatalf("SDH not aged: %d -> %d", before, after)
	}
}
