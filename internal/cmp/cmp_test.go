package cmp

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/workload"
	"repro/pkg/plru"
)

// testConfig builds a scaled-down simulation config (small cache, short
// run) to keep tests fast while exercising every subsystem. The cache
// size matters: pick one that lets the chosen benchmarks' working sets
// partially fit, or every policy degenerates to all-miss and comparisons
// become vacuous.
func testConfig(t *testing.T, benchmarks []string, kind plru.Kind, cpaAcr string, sizeKB int) Config {
	t.Helper()
	w := workload.Workload{Name: "test", Benchmarks: benchmarks}
	cfg := Config{
		Workload: w,
		L2: cache.Config{
			Name: "L2", SizeBytes: sizeKB * 1024, LineBytes: 128, Ways: 16,
			Policy: kind, Cores: len(benchmarks), Seed: 3,
		},
		Params:   cpu.DefaultParams(),
		L1:       cpu.DefaultL1Config(128),
		MaxInsts: 150_000,
	}
	if cpaAcr != "" {
		c, err := core.ParseAcronym(cpaAcr)
		if err != nil {
			t.Fatal(err)
		}
		c.SampleRate = 8
		c.Interval = 50_000
		cfg.CPA = &c
	}
	return cfg
}

func runConfig(t *testing.T, cfg Config) Results {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys.Run()
}

func TestRunCompletesAllCores(t *testing.T) {
	cfg := testConfig(t, []string{"crafty", "mcf"}, plru.LRU, "", 1024)
	res := runConfig(t, cfg)
	if len(res.PerCore) != 2 {
		t.Fatalf("results for %d cores", len(res.PerCore))
	}
	for i, c := range res.PerCore {
		if c.Insts < cfg.MaxInsts {
			t.Errorf("core %d committed %d < %d", i, c.Insts, cfg.MaxInsts)
		}
		if c.IPC <= 0 {
			t.Errorf("core %d IPC = %v", i, c.IPC)
		}
	}
	if res.FinishCycles <= 0 {
		t.Error("no finish time")
	}
	if res.ConfigName != "none-LRU" {
		t.Errorf("config name %q", res.ConfigName)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := testConfig(t, []string{"twolf", "gap"}, plru.NRU, "M-0.75N", 1024)
	a := runConfig(t, cfg)
	b := runConfig(t, cfg)
	if a.FinishCycles != b.FinishCycles || a.L2Misses != b.L2Misses {
		t.Fatal("identical simulations diverged")
	}
	for i := range a.PerCore {
		if a.PerCore[i].IPC != b.PerCore[i].IPC {
			t.Fatalf("core %d IPC differs across runs", i)
		}
	}
}

func TestComputeBoundFasterThanMemoryBound(t *testing.T) {
	res := runConfig(t, testConfig(t, []string{"eon", "mcf"}, plru.LRU, "", 1024))
	if res.PerCore[0].IPC <= res.PerCore[1].IPC {
		t.Fatalf("eon IPC %.3f should exceed mcf IPC %.3f",
			res.PerCore[0].IPC, res.PerCore[1].IPC)
	}
}

func TestCPARepartitionsDuringRun(t *testing.T) {
	res := runConfig(t, testConfig(t, []string{"twolf", "swim"}, plru.LRU, "M-L", 1024))
	if res.Repartitions == 0 {
		t.Fatal("CPA never repartitioned")
	}
	if res.ATDObserves == 0 {
		t.Fatal("profiling monitors observed nothing")
	}
	if res.ConfigName != "M-L" {
		t.Errorf("config name %q", res.ConfigName)
	}
}

func TestPartitioningProtectsVictimThread(t *testing.T) {
	// twolf (reuse-heavy) paired with swim (streaming) in a small cache:
	// MinMisses partitioning must not hurt, and should typically improve,
	// the reuse thread's IPC versus the unpartitioned shared cache.
	base := runConfig(t, testConfig(t, []string{"twolf", "swim"}, plru.LRU, "", 1024))
	part := runConfig(t, testConfig(t, []string{"twolf", "swim"}, plru.LRU, "M-L", 1024))
	baseIPC := base.PerCore[0].IPC
	partIPC := part.PerCore[0].IPC
	if partIPC < baseIPC*0.98 {
		t.Fatalf("partitioning hurt the reuse thread: %.4f -> %.4f", baseIPC, partIPC)
	}
	// And total misses should not explode.
	if part.L2Misses > base.L2Misses*12/10 {
		t.Fatalf("partitioned misses %d far above unpartitioned %d",
			part.L2Misses, base.L2Misses)
	}
}

func TestAllPoliciesAndCPAConfigsRun(t *testing.T) {
	cases := []struct {
		kind plru.Kind
		acr  string
	}{
		{plru.LRU, ""},
		{plru.NRU, ""},
		{plru.BT, ""},
		{plru.Random, ""},
		{plru.LRU, "C-L"},
		{plru.LRU, "M-L"},
		{plru.NRU, "M-1.0N"},
		{plru.NRU, "M-0.75N"},
		{plru.NRU, "M-0.5N"},
		{plru.BT, "M-BT"},
	}
	for _, tc := range cases {
		cfg := testConfig(t, []string{"parser", "gzip"}, tc.kind, tc.acr, 512)
		cfg.MaxInsts = 60_000
		res := runConfig(t, cfg)
		name := tc.acr
		if name == "" {
			name = "none-" + tc.kind.String()
		}
		if res.Throughput() <= 0 {
			t.Errorf("%s: throughput %.3f", name, res.Throughput())
		}
	}
}

func TestEightCoreRun(t *testing.T) {
	ws, err := workload.ByThreads(8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, ws[0].Benchmarks, plru.LRU, "M-L", 1024)
	cfg.MaxInsts = 40_000
	res := runConfig(t, cfg)
	if len(res.PerCore) != 8 {
		t.Fatalf("%d per-core results", len(res.PerCore))
	}
	if res.Repartitions == 0 {
		t.Error("no repartitions in 8-core run")
	}
}

func TestValidateCatchesMismatches(t *testing.T) {
	cfg := testConfig(t, []string{"gzip", "gcc"}, plru.LRU, "", 512)
	cfg.L2.Cores = 3
	if _, err := New(cfg); err == nil {
		t.Error("core-count mismatch accepted")
	}
	cfg = testConfig(t, []string{"gzip", "gcc"}, plru.LRU, "", 512)
	cfg.L1.LineBytes = 64
	if _, err := New(cfg); err == nil {
		t.Error("line-size mismatch accepted")
	}
	cfg = testConfig(t, []string{"gzip", "gcc"}, plru.LRU, "", 512)
	cfg.MaxInsts = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero MaxInsts accepted")
	}
	cfg = testConfig(t, []string{"nosuch"}, plru.LRU, "", 512)
	if _, err := New(cfg); err == nil {
		t.Error("unknown benchmark accepted")
	}
	// CPA policy mismatch with L2 policy.
	cfg = testConfig(t, []string{"gzip", "gcc"}, plru.LRU, "M-BT", 512)
	if _, err := New(cfg); err == nil {
		t.Error("CPA/L2 policy mismatch accepted")
	}
}

// streamFitConfig builds the policy-discriminating scenario: wupwise's
// 512KB circular stream plus gzip fills a 1MB L2 almost exactly, so true
// LRU retains the stream while Random keeps evicting it. Short runs never
// fill the cache and make every policy look identical, hence 1.5M insts.
func streamFitConfig(t *testing.T, kind plru.Kind) Config {
	cfg := testConfig(t, []string{"wupwise", "gzip"}, kind, "", 1024)
	cfg.MaxInsts = 1_500_000
	return cfg
}

func TestLRUOutperformsRandomOnReuseWorkload(t *testing.T) {
	lru := runConfig(t, streamFitConfig(t, plru.LRU))
	rnd := runConfig(t, streamFitConfig(t, plru.Random))
	if lru.Throughput() <= rnd.Throughput() {
		t.Fatalf("LRU throughput %.3f <= Random %.3f",
			lru.Throughput(), rnd.Throughput())
	}
	if lru.L2Misses >= rnd.L2Misses {
		t.Fatalf("LRU misses %d >= Random misses %d", lru.L2Misses, rnd.L2Misses)
	}
}

func TestPseudoLRUWithinFewPercentOfLRU(t *testing.T) {
	// The paper's headline sanity: NRU and BT land close to LRU on a
	// non-partitioned cache (Fig. 6 shows <= ~5%).
	lru := runConfig(t, streamFitConfig(t, plru.LRU))
	nru := runConfig(t, streamFitConfig(t, plru.NRU))
	bt := runConfig(t, streamFitConfig(t, plru.BT))
	for name, r := range map[string]Results{"NRU": nru, "BT": bt} {
		rel := r.Throughput() / lru.Throughput()
		if math.Abs(rel-1) > 0.05 {
			t.Errorf("%s relative throughput %.3f, want within 5%% of LRU", name, rel)
		}
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := testConfig(t, []string{"mcf", "swim"}, plru.LRU, "", 256)
	cfg.MaxInsts = 50_000_000 // far more than the canceled run will get through
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := sys.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.PerCore) != 0 {
		t.Fatalf("canceled run returned results: %+v", res)
	}
	// The poll interval is thousands of steps, not millions: a canceled
	// run must bail out long before the instruction target.
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v", d)
	}

	// Mid-run, on the run with the longest private stretches: one core
	// (nobody to wait for, no interval boundary) whose working set sits in
	// its L1. Cancellation latency is counted in events, not in scheduler
	// turns, so it must land just as fast.
	cfg = testConfig(t, []string{"eon"}, plru.LRU, "", 1024)
	cfg.MaxInsts = 1 << 40
	if sys, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var canceledAt time.Time
	time.AfterFunc(30*time.Millisecond, func() {
		canceledAt = time.Now()
		cancel()
	})
	res, err = sys.RunContext(ctx)
	took := time.Since(canceledAt)
	if !errors.Is(err, context.Canceled) || len(res.PerCore) != 0 {
		t.Fatalf("mid-run cancel: err = %v, results %+v", err, res)
	}
	if took > 100*time.Millisecond {
		t.Fatalf("mid-run cancellation took %v", took)
	}
	if insts := sys.cores[0].Insts(); insts < 10_000 {
		t.Fatalf("canceled after %d instructions: the run had not got going", insts)
	}
}

// TestRunGroupStopsRecorders checks that a group of two or more records
// each tape on a goroutine of its own, that a group of one starts none,
// and that RunGroup leaves none running however it returns: finished,
// canceled mid-run, or refused.
func TestRunGroupStopsRecorders(t *testing.T) {
	benchmarks := []string{"mcf", "twolf"}
	group := func(benchmarks []string, maxInsts uint64, acronyms ...string) []*System {
		systems := make([]*System, len(acronyms))
		for i, acr := range acronyms {
			cfg := testConfig(t, benchmarks, plru.BT, acr, 256)
			cfg.MaxInsts = maxInsts
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			systems[i] = sys
		}
		return systems
	}
	// during counts the recorders running at a group's first L2 access.
	during := func(s *System) *int {
		n := -1
		s.SetTracer(func(int, uint64) {
			if n < 0 {
				n = recorderGoroutines()
			}
		})
		return &n
	}

	systems := group(benchmarks, 150_000, "", "M-BT", "C-BT")
	seen := during(systems[0])
	if _, _, err := RunGroup(context.Background(), 2, systems...); err != nil {
		t.Fatal(err)
	}
	if *seen != len(benchmarks) {
		t.Errorf("%d recorders ran for a group of three on %d tapes", *seen, len(benchmarks))
	}
	noRecorders(t, "a finished group")

	alone := group(benchmarks, 150_000, "M-BT")[0]
	seen = during(alone)
	if _, err := alone.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if *seen != 0 {
		t.Errorf("a group of one started %d recorders", *seen)
	}

	systems = group(benchmarks, 1<<40, "", "M-BT")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var canceledAt time.Time
	time.AfterFunc(30*time.Millisecond, func() {
		canceledAt = time.Now()
		cancel()
	})
	_, _, err := RunGroup(ctx, 2, systems...)
	took := time.Since(canceledAt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled group: err = %v", err)
	}
	if took > 100*time.Millisecond {
		t.Errorf("canceling a group took %v", took)
	}
	noRecorders(t, "a canceled group")

	mixed := append(group(benchmarks, 150_000, ""), group([]string{"mcf", "swim"}, 150_000, "M-BT")...)
	if _, _, err := RunGroup(context.Background(), 2, mixed...); err == nil {
		t.Fatal("a group of different programs ran")
	}
	noRecorders(t, "a refused group")
}

// recorderGoroutines counts the goroutines running a tape's recorder.
func recorderGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("cpu.(*Tape).recordAhead("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// noRecorders fails t if a recorder goroutine is still running a second
// after what returned: one that has closed its done channel may take a
// moment to exit.
func noRecorders(t *testing.T, what string) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); recorderGoroutines() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d tape recorders still running after %s", recorderGoroutines(), what)
		}
	}
}
