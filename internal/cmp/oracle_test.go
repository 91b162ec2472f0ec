package cmp

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/pkg/cpapart"
	"repro/pkg/plru"
)

// referenceRun is the run loop RunContext had before the lookahead
// scheduler, kept verbatim as the oracle: one trace event per iteration,
// always on the core with the smallest local clock (ties: lowest id),
// with a Tick in front of every event. It defines the order of shared-L2
// events, the cycle of every repartition and the event the run ends on;
// RunContext must reproduce all three.
func (s *System) referenceRun(ctx context.Context) (Results, error) {
	n := len(s.cores)
	crossed := make([]bool, n)
	results := make([]CoreResult, n)
	remaining := n
	// The cores' local clocks, side by side: picking the next core reads
	// this one slice instead of chasing a pointer per core per event.
	clocks := make([]float64, n)
	for i, c := range s.cores {
		clocks[i] = c.Cycles()
	}

	done := ctx.Done()
	sinceCheck := 0
	for remaining > 0 {
		if done != nil {
			if sinceCheck++; sinceCheck >= cancelCheckEvery {
				sinceCheck = 0
				select {
				case <-done:
					return Results{}, ctx.Err()
				default:
				}
			}
		}
		// Pick the core with the smallest local clock (ties: lowest id).
		min := 0
		for i := 1; i < n; i++ {
			if clocks[i] < clocks[min] {
				min = i
			}
		}
		c := s.cores[min]
		if s.cpa != nil {
			// Global time is the stepping core's clock.
			s.cpa.Tick(uint64(clocks[min]))
		}
		clocks[min] = c.Step()

		if !crossed[min] && c.Insts() >= s.cfg.MaxInsts {
			crossed[min] = true
			remaining--
			results[min] = CoreResult{
				Benchmark: s.cfg.Workload.Benchmarks[min],
				Insts:     c.Insts(),
				Cycles:    c.Cycles(),
				IPC:       float64(c.Insts()) / c.Cycles(),
				Stats:     c.Stats(),
			}
		}
	}
	return s.results(results), nil
}

// oracleConfig is one L2 policy with an optional CPA on top.
type oracleConfig struct {
	name string
	kind plru.Kind
	cpa  *core.Config // nil = no CPA attached
}

// oracleConfigs lists the four unpartitioned policies, every acronym
// shape core.ParseAcronym accepts ({C,M} x {L, BT, <scale>N}), and a CPA
// that is attached but does not partition.
func oracleConfigs(t testing.TB) []oracleConfig {
	t.Helper()
	out := []oracleConfig{
		{name: "none-LRU", kind: plru.LRU},
		{name: "none-NRU", kind: plru.NRU},
		{name: "none-BT", kind: plru.BT},
		{name: "none-Random", kind: plru.Random},
	}
	for _, prefix := range []string{"C-", "M-"} {
		for _, suffix := range []string{"L", "BT", "1.0N", "0.75N", "0.5N"} {
			c, err := core.ParseAcronym(prefix + suffix)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, oracleConfig{name: c.Acronym, kind: c.Policy, cpa: &c})
		}
	}
	out = append(out, oracleConfig{name: "cpa-unpartitioned", kind: plru.LRU,
		cpa: &core.Config{Policy: plru.LRU, Enforcement: core.EnforceNone}})
	return out
}

// oracleRun describes one simulation of the differential test.
type oracleRun struct {
	benchmarks []string
	oc         oracleConfig
	sizeKB     int
	maxInsts   uint64
	interval   uint64
	sampleRate int
	// profiles, when set, replaces the catalog programs of benchmarks
	// (which then only names the cores) with these, seeded by core id.
	profiles []trace.Profile
}

func (r oracleRun) String() string {
	programs := fmt.Sprint(r.benchmarks)
	if r.profiles != nil {
		programs = fmt.Sprintf("[%d synthetic]", len(r.profiles))
	}
	return fmt.Sprintf("%s %s %dKB insts=%d interval=%d sample=%d",
		r.oc.name, programs, r.sizeKB, r.maxInsts, r.interval, r.sampleRate)
}

func (r oracleRun) config() Config {
	cfg := Config{
		Workload: workload.Workload{Name: "oracle", Benchmarks: r.benchmarks},
		L2: cache.Config{
			Name: "L2", SizeBytes: r.sizeKB * 1024, LineBytes: 128, Ways: 16,
			Policy: r.oc.kind, Cores: len(r.benchmarks), Seed: 3,
		},
		Params:   cpu.DefaultParams(),
		L1:       cpu.DefaultL1Config(128),
		MaxInsts: r.maxInsts,
	}
	if r.oc.cpa != nil {
		c := *r.oc.cpa
		c.Interval, c.SampleRate = r.interval, r.sampleRate
		cfg.CPA = &c
	}
	return cfg
}

// observation is everything of a run that another part of the repository
// can see: the results, the traced demand accesses, the repartition
// decisions, and where every core, the L2 and the CPA stood
// when the run ended.
type observation struct {
	Results  Results
	Accesses []tracedAccess
	Reparts  []repartition
	Cycles   []float64
	Cores    []cpu.Stats
	L2       cache.Stats
	Alloc    cpapart.Allocation
}

type tracedAccess struct {
	Core int
	Addr uint64
}

type repartition struct {
	Cycle uint64
	Alloc cpapart.Allocation
}

// observed builds r's system with hooks that record its demand accesses
// and repartitions into the returned observation.
func observed(t testing.TB, r oracleRun) (*System, *observation) {
	t.Helper()
	sys, err := New(r.config())
	if err != nil {
		t.Fatalf("%v: %v", r, err)
	}
	for i, p := range r.profiles {
		sys.cores[i] = cpu.New(i, p, uint64(i)+1, sys.cfg.L1, sys.cfg.Params, sys)
	}
	o := &observation{}
	sys.SetTracer(func(core int, addr uint64) {
		o.Accesses = append(o.Accesses, tracedAccess{core, addr})
	})
	if sys.CPA() != nil {
		sys.CPA().OnRepartition = func(cycle uint64, alloc cpapart.Allocation) {
			o.Reparts = append(o.Reparts, repartition{cycle, alloc})
		}
	}
	return sys, o
}

// finish records where the cores, the L2 and the CPA stood when the run
// ended.
func (o *observation) finish(sys *System) {
	for _, c := range sys.cores {
		o.Cycles = append(o.Cycles, c.Cycles())
		o.Cores = append(o.Cores, c.Stats())
	}
	o.L2 = *sys.L2Cache().Stats()
	if sys.CPA() != nil {
		o.Alloc = sys.CPA().Allocation()
	}
}

func observe(t testing.TB, r oracleRun, run func(*System, context.Context) (Results, error)) observation {
	t.Helper()
	sys, o := observed(t, r)
	// A live context: the poll must not perturb anything either.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var err error
	if o.Results, err = run(sys, ctx); err != nil {
		t.Fatalf("%v: %v", r, err)
	}
	o.finish(sys)
	return *o
}

// checkAgainstOracle runs r under the scheduler and under referenceRun
// and requires the two observations to be deeply equal (floats bit for
// bit). It returns the scheduler's observation.
func checkAgainstOracle(t testing.TB, r oracleRun) observation {
	t.Helper()
	want := observe(t, r, (*System).referenceRun)
	got := observe(t, r, (*System).RunContext)
	if !matches(t, r, got, want) {
		t.FailNow()
	}
	return got
}

// matches reports whether got equals the oracle's want, and otherwise
// names the first thing that went wrong, earliest cause first.
func matches(t testing.TB, r oracleRun, got, want observation) bool {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return true
	}
	for i := range min(len(got.Accesses), len(want.Accesses)) {
		if got.Accesses[i] != want.Accesses[i] {
			t.Errorf("%v: demand access %d is %+v, oracle has %+v", r, i, got.Accesses[i], want.Accesses[i])
			break
		}
	}
	if len(got.Accesses) != len(want.Accesses) {
		t.Errorf("%v: %d demand accesses, oracle has %d", r, len(got.Accesses), len(want.Accesses))
	}
	for i := range min(len(got.Reparts), len(want.Reparts)) {
		if !reflect.DeepEqual(got.Reparts[i], want.Reparts[i]) {
			t.Errorf("%v: repartition %d is %+v, oracle has %+v", r, i, got.Reparts[i], want.Reparts[i])
			break
		}
	}
	if len(got.Reparts) != len(want.Reparts) {
		t.Errorf("%v: %d repartitions, oracle has %d", r, len(got.Reparts), len(want.Reparts))
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Errorf("%v: results differ\n got %+v\nwant %+v", r, got.Results, want.Results)
	}
	if !reflect.DeepEqual(got.Cycles, want.Cycles) || !reflect.DeepEqual(got.Cores, want.Cores) {
		t.Errorf("%v: cores stopped elsewhere\n got %v %+v\nwant %v %+v", r, got.Cycles, got.Cores, want.Cycles, want.Cores)
	}
	if !reflect.DeepEqual(got.L2, want.L2) || !reflect.DeepEqual(got.Alloc, want.Alloc) {
		t.Errorf("%v: shared state differs\n got %+v %v\nwant %+v %v", r, got.L2, got.Alloc, want.L2, want.Alloc)
	}
	return false
}

// references runs each of runs alone under referenceRun.
func references(t testing.TB, runs []oracleRun) []observation {
	t.Helper()
	wants := make([]observation, len(runs))
	for i, r := range runs {
		wants[i] = observe(t, r, (*System).referenceRun)
	}
	return wants
}

// checkGroupAgainstOracle runs runs, which share their cores, as one
// RunGroup on workers goroutines and requires each system's observation
// to equal its own reference in wants. A group shares one tape per core
// and advances in lockstep, recycling tape chunks between horizons; the
// horizon and the recycling bound only the group's memory, so taking
// either out leaves every observation as it is.
func checkGroupAgainstOracle(t testing.TB, runs []oracleRun, workers int, wants []observation) {
	t.Helper()
	systems := make([]*System, len(runs))
	obs := make([]*observation, len(runs))
	for i, r := range runs {
		systems[i], obs[i] = observed(t, r)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, st, err := RunGroup(ctx, workers, systems...)
	if err != nil {
		t.Fatalf("%v: %v", runs[0], err)
	}
	ok := true
	for i, r := range runs {
		obs[i].Results = res[i]
		obs[i].finish(systems[i])
		ok = matches(t, r, *obs[i], wants[i]) && ok
	}
	if !ok {
		t.FailNow()
	}
	var replayed uint64
	for _, w := range wants {
		for _, c := range w.Cores {
			replayed += c.Branches + c.L1Accesses
		}
	}
	if st.Replayed != replayed {
		t.Fatalf("%v: %d events replayed for %d run", runs[0], st.Replayed, replayed)
	}
}

// oracleBenchmarks mixes memory-bound, streaming, cache-friendly and
// compute-bound programs so that every prefix has cores that run far
// ahead of the others; sixtrack twice gives two cores the same profile.
var oracleBenchmarks = []string{"mcf", "eon", "swim", "twolf", "sixtrack", "art", "sixtrack", "gzip"}

// TestSchedulerMatchesReferenceRun is the exactness proof by exhaustion
// over the configuration space: 1, 2, 4 and 8 cores under every
// oracleConfigs entry, with an interval short enough for dozens of
// boundaries.
func TestSchedulerMatchesReferenceRun(t *testing.T) {
	for _, oc := range oracleConfigs(t) {
		t.Run(oc.name, func(t *testing.T) {
			t.Parallel()
			for _, cores := range []int{1, 2, 4, 8} {
				r := oracleRun{
					benchmarks: oracleBenchmarks[:cores], oc: oc, sizeKB: 256,
					// The slowest core sets the run's length, so more
					// cores need fewer instructions each for as many
					// boundaries.
					maxInsts: uint64(20_000 / (1 + cores/2)), interval: 300, sampleRate: 4,
				}
				got := checkAgainstOracle(t, r)
				if oc.cpa != nil && oc.cpa.Partitioned() && len(got.Reparts) < 20 {
					t.Errorf("%v: only %d interval boundaries", r, len(got.Reparts))
				}
				if len(got.Accesses) == 0 || got.Cores[0].L1Writebacks == 0 {
					t.Errorf("%v: %d demand accesses, %d dirty L1 victims on core 0: the run exercised nothing",
						r, len(got.Accesses), got.Cores[0].L1Writebacks)
				}
			}
		})
	}
}

// TestSchedulerMatchesReferenceRunRandomized draws whole simulations —
// how many cores, which programs, which configuration, the budget, the
// interval, the L2 size — from a seeded generator.
// Intervals range from a handful of events to longer than the run, and
// budgets from shorter than one interval to many, which moves the four
// stop rules against each other in ways the grid above does not.
func TestSchedulerMatchesReferenceRunRandomized(t *testing.T) {
	t.Parallel()
	cases := 200
	if testing.Short() {
		cases = 20
	}
	rng := rand.New(rand.NewPCG(15, 2010))
	configs := oracleConfigs(t)
	names := workload.Names()
	for i := 0; i < cases; i++ {
		r := oracleRun{
			oc:         configs[rng.IntN(len(configs))],
			sizeKB:     64 << rng.IntN(5), // 64 KB .. 1 MB
			maxInsts:   uint64(500 + rng.IntN(25_000)),
			interval:   uint64(50 + rng.IntN(1<<(6+rng.IntN(11)))), // up to 64 .. 64 K cycles
			sampleRate: 1 << rng.IntN(4),
		}
		for range 1 + rng.IntN(8) {
			r.benchmarks = append(r.benchmarks, names[rng.IntN(len(names))])
		}
		checkAgainstOracle(t, r)
	}
}

// halfCycleProfile is a program whose clock only ever holds multiples of
// half a cycle: an integer base IPC of 1 or 2, and half of every (integer)
// L2 and memory penalty hidden. Catalog programs almost never reach the
// same clock value twice; cores running these do all the time.
func halfCycleProfile(rng *rand.Rand) trace.Profile {
	return trace.Profile{
		Name: "halfcycle", BaseIPC: float64(1 + rng.IntN(2)), MemRatio: 0.3, BranchRatio: 0.1,
		BranchBias: 0.9, MLPOverlap: 0.5, WriteRatio: 0.3, L1Locality: 0.9,
		Phases: []trace.Phase{{
			Insts: 1 << 40, HotLines: 1500, HotWeight: 0.6,
			StreamLines: 4096, StreamWeight: 0.2, ColdWeight: 0.2,
		}},
	}
}

// TestSchedulerMatchesReferenceRunOnClockTies covers the second half of
// the election key. Events that start on the same clock are ordered by
// core id, so a crossed core may run an event that ties with an uncrossed
// core's key only if its id is the lower one; the difference shows when
// the tie is with the event the run ends on. Short budgets give many
// endings, and half-cycle clocks give a tie on a good share of them.
func TestSchedulerMatchesReferenceRunOnClockTies(t *testing.T) {
	t.Parallel()
	cases := 150
	if testing.Short() {
		cases = 15
	}
	rng := rand.New(rand.NewPCG(7, 0x71e5))
	var configs []oracleConfig
	for _, oc := range oracleConfigs(t) {
		switch oc.name {
		case "none-LRU", "M-L", "C-L", "M-BT":
			configs = append(configs, oc)
		}
	}
	for i := 0; i < cases; i++ {
		r := oracleRun{
			oc:         configs[rng.IntN(len(configs))],
			sizeKB:     256,
			maxInsts:   uint64(200 + rng.IntN(4_000)),
			interval:   uint64(100 + rng.IntN(3_000)),
			sampleRate: 4,
		}
		for range 2 << rng.IntN(3) { // 2, 4 or 8 cores
			r.benchmarks = append(r.benchmarks, "gzip")
			r.profiles = append(r.profiles, halfCycleProfile(rng))
		}
		checkAgainstOracle(t, r)
	}
}

// TestGroupMatchesReferenceRun runs every oracleConfigs entry at two L2
// sizes as one group, at 1, 2, 4 and 8 cores, on 1, 2 and 3 workers: each
// system must end exactly where its own reference run does.
func TestGroupMatchesReferenceRun(t *testing.T) {
	for _, cores := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("%dcores", cores), func(t *testing.T) {
			t.Parallel()
			var runs []oracleRun
			for _, oc := range oracleConfigs(t) {
				for _, sizeKB := range []int{256, 64} {
					runs = append(runs, oracleRun{
						benchmarks: oracleBenchmarks[:cores], oc: oc, sizeKB: sizeKB,
						maxInsts: uint64(20_000 / (1 + cores/2)), interval: 300, sampleRate: 4,
					})
				}
			}
			wants := references(t, runs)
			for workers := 1; workers <= 3; workers++ {
				checkGroupAgainstOracle(t, runs, workers, wants)
			}
		})
	}
}

// TestGroupMatchesReferenceRunRandomized draws groups as
// TestSchedulerMatchesReferenceRunRandomized draws runs: one workload and
// budget per group, and per member a configuration, an L2 size, an
// interval and a sampling rate.
func TestGroupMatchesReferenceRunRandomized(t *testing.T) {
	t.Parallel()
	groups := 30
	if testing.Short() {
		groups = 3
	}
	rng := rand.New(rand.NewPCG(33, 2010))
	configs := oracleConfigs(t)
	names := workload.Names()
	for range groups {
		var benchmarks []string
		for range 1 + rng.IntN(8) {
			benchmarks = append(benchmarks, names[rng.IntN(len(names))])
		}
		maxInsts := uint64(500 + rng.IntN(25_000))
		var runs []oracleRun
		for range 2 + rng.IntN(5) {
			runs = append(runs, oracleRun{
				benchmarks: benchmarks,
				oc:         configs[rng.IntN(len(configs))],
				sizeKB:     64 << rng.IntN(5),
				maxInsts:   maxInsts,
				interval:   uint64(50 + rng.IntN(1<<(6+rng.IntN(11)))),
				sampleRate: 1 << rng.IntN(4),
			})
		}
		checkGroupAgainstOracle(t, runs, 1+rng.IntN(3), references(t, runs))
	}
}

// TestGroupMatchesReferenceRunOnClockTies runs the half-cycle programs of
// TestSchedulerMatchesReferenceRunOnClockTies in groups: every member
// shares the group's programs and budget.
func TestGroupMatchesReferenceRunOnClockTies(t *testing.T) {
	t.Parallel()
	groups := 30
	if testing.Short() {
		groups = 3
	}
	rng := rand.New(rand.NewPCG(8, 0x71e5))
	var configs []oracleConfig
	for _, oc := range oracleConfigs(t) {
		switch oc.name {
		case "none-LRU", "M-L", "C-L", "M-BT":
			configs = append(configs, oc)
		}
	}
	for range groups {
		var benchmarks []string
		var profiles []trace.Profile
		for range 2 << rng.IntN(3) { // 2, 4 or 8 cores
			benchmarks = append(benchmarks, "gzip")
			profiles = append(profiles, halfCycleProfile(rng))
		}
		maxInsts := uint64(200 + rng.IntN(4_000))
		var runs []oracleRun
		for range 2 + rng.IntN(4) {
			runs = append(runs, oracleRun{
				benchmarks: benchmarks, profiles: profiles,
				oc:         configs[rng.IntN(len(configs))],
				sizeKB:     256,
				maxInsts:   maxInsts,
				interval:   uint64(100 + rng.IntN(3_000)),
				sampleRate: 4,
			})
		}
		checkGroupAgainstOracle(t, runs, 1+rng.IntN(3), references(t, runs))
	}
}
