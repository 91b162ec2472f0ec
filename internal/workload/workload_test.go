package workload

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/profiling"
	"repro/internal/trace"
	"repro/pkg/plru"
)

func TestCatalogComplete(t *testing.T) {
	// Every benchmark named in Table II must resolve.
	if err := Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCatalogProfilesValid(t *testing.T) {
	for _, name := range Names() {
		p := MustGet(name)
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if p.Name != name {
			t.Errorf("profile name %q != catalog key %q", p.Name, name)
		}
	}
}

func TestCatalogSize(t *testing.T) {
	// The paper's Table II uses exactly 25 distinct programs.
	if got := len(Names()); got != 25 {
		t.Fatalf("catalog has %d benchmarks, want 25", got)
	}
}

func TestWorkloadCounts(t *testing.T) {
	// Paper: 24 two-thread, 14 four-thread, 11 eight-thread workloads.
	for _, tc := range []struct{ n, want int }{{2, 24}, {4, 14}, {8, 11}} {
		ws, err := ByThreads(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if len(ws) != tc.want {
			t.Errorf("%dT workloads: %d, want %d", tc.n, len(ws), tc.want)
		}
		for _, w := range ws {
			if w.Threads() != tc.n {
				t.Errorf("%s has %d benchmarks", w.Name, w.Threads())
			}
		}
	}
	if len(All()) != 49 {
		t.Errorf("All() = %d workloads, want 49", len(All()))
	}
	if _, err := ByThreads(3); err == nil {
		t.Error("ByThreads(3) accepted")
	}
}

func TestSpecificTableIIRows(t *testing.T) {
	w, err := Lookup("2T_04")
	if err != nil {
		t.Fatal(err)
	}
	if w.Benchmarks[0] != "vpr" || w.Benchmarks[1] != "art" {
		t.Errorf("2T_04 = %v, want vpr art", w.Benchmarks)
	}
	w, err = Lookup("8T_04")
	if err != nil {
		t.Fatal(err)
	}
	// facerec appears twice in 8T_04, as printed in the paper.
	count := 0
	for _, b := range w.Benchmarks {
		if b == "facerec" {
			count++
		}
	}
	if count != 2 {
		t.Errorf("8T_04 should contain facerec twice, got %d", count)
	}
}

func TestAliasPerl(t *testing.T) {
	p, err := Get("perl")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "perlbmk" {
		t.Errorf("perl resolved to %q", p.Name)
	}
	if Seed("perl") != Seed("perlbmk") {
		t.Error("alias changes the trace seed")
	}
}

func TestSeedsDistinctAndStable(t *testing.T) {
	seen := map[uint64]string{}
	for _, n := range Names() {
		s := Seed(n)
		if prev, dup := seen[s]; dup {
			t.Errorf("seed collision: %s and %s", n, prev)
		}
		seen[s] = n
		if Seed(n) != s {
			t.Errorf("seed for %s not stable", n)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("9T_99"); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := Get("doom"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestSingleThreadCoversCatalog(t *testing.T) {
	ws := SingleThread()
	if len(ws) != len(Names()) {
		t.Fatalf("SingleThread gave %d workloads", len(ws))
	}
}

// l2Profile runs a benchmark's trace through a private L1 (as in the real
// system — the ATD only sees L2 accesses) into an LRU profiling monitor.
// It returns the monitor plus the count of memory accesses issued, so
// callers can normalize either per L2 access or per memory access.
func l2Profile(t *testing.T, name string) (*profiling.Monitor, uint64) {
	t.Helper()
	g := trace.NewGenerator(MustGet(name), 0, Seed(name), 128)
	l1 := cache.New(cache.Config{Name: "L1", SizeBytes: 32 * 1024,
		LineBytes: 128, Ways: 2, Policy: plru.LRU, Cores: 1})
	m := profiling.NewMonitor(profiling.Config{
		L2Sets: 1024, Ways: 16, LineBytes: 128, SampleRate: 4,
		Kind: plru.LRU,
	})
	var mem uint64
	for mem < 600000 {
		e := g.Next()
		if e.Kind != trace.Mem {
			continue
		}
		mem++
		if !l1.Access(0, e.Addr).Hit {
			m.Observe(e.Addr)
		}
	}
	if m.Observed() == 0 {
		t.Fatalf("%s: no L2 accesses reached the monitor", name)
	}
	return m, mem
}

// missPerL2 returns the L2 miss ratio at `ways` (relative to L2 accesses).
func missPerL2(t *testing.T, name string, ways int) float64 {
	m, _ := l2Profile(t, name)
	return float64(m.SDH().Misses(ways)) / float64(m.Observed())
}

// missPerMem returns L2 misses at `ways` per memory access. The monitor
// samples 1/4 of the sets, so scale the observed count accordingly.
func missPerMem(t *testing.T, name string, ways int) float64 {
	m, mem := l2Profile(t, name)
	return float64(m.SDH().Misses(ways)) * 4 / float64(mem)
}

func TestBenchmarkClassesBehaveAsDocumented(t *testing.T) {
	// Compute-bound programs barely touch the L2 once given 2 ways:
	// under 2% of their memory accesses miss.
	for _, n := range []string{"eon", "crafty", "sixtrack"} {
		if r := missPerMem(t, n, 2); r > 0.02 {
			t.Errorf("%s: %.4f L2 misses per memory access at 2 ways, want < 0.02", n, r)
		}
	}
	// Streaming programs miss heavily even with the whole cache.
	for _, n := range []string{"swim", "lucas"} {
		if r := missPerL2(t, n, 16); r < 0.3 {
			t.Errorf("%s: miss ratio %.3f at 16 ways, want streaming-high", n, r)
		}
	}
	// Cache-hungry programs keep improving with more ways.
	for _, n := range []string{"art", "mcf"} {
		few := missPerL2(t, n, 2)
		many := missPerL2(t, n, 16)
		if few-many < 0.1 {
			t.Errorf("%s: only %.3f miss-ratio gain from 2 to 16 ways", n, few-many)
		}
	}
	// Mid-size programs bend inside the cache: meaningful gain from 1 to
	// 8 ways, little after.
	for _, n := range []string{"twolf", "vpr", "parser"} {
		one := missPerL2(t, n, 1)
		eight := missPerL2(t, n, 8)
		sixteen := missPerL2(t, n, 16)
		if one-eight < 0.1 {
			t.Errorf("%s: flat inside the cache (%.3f -> %.3f)", n, one, eight)
		}
		if eight-sixteen > 0.05 {
			t.Errorf("%s: still dropping sharply past 8 ways", n)
		}
	}
}
