// Package experiments reproduces the paper's evaluation: Table I
// (complexity), Table II (setup), Figure 6 (pseudo-LRU vs LRU on
// non-partitioned caches), Figure 7 (the six CPA configurations), Figure 8
// (partitioned vs non-partitioned across cache sizes) and Figure 9 (power
// and energy).
//
// The harness runs scaled-down simulations by default (the paper commits
// 100 M instructions per thread on a cycle-accurate simulator; see
// EXPERIMENTS.md for the scaling discussion) and memoizes runs so figures
// that share configurations — 7 and 9 — reuse work.
//
// Simulations execute through a bounded worker pool (internal/
// experiments/sched): each figure first gathers the full list of
// simulations it needs, prefetches them concurrently, then assembles its
// data serially from the memoized results. The simulations of one
// workload run as one group (cmp.RunGroup), which records each core's
// private half once and replays it into every configuration. Because
// every simulation is seeded from its own configuration and a group's
// runs are each bit-identical to a run alone, the assembled figures are
// bit-identical at any Parallelism setting, including 1.
package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/cmp"
	"repro/internal/complexity"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/experiments/sched"
	"repro/internal/metrics"
	"repro/internal/optref"
	"repro/internal/power"
	"repro/internal/profiling"
	"repro/internal/workload"
	"repro/pkg/plru"
)

// Options scale the experiments.
type Options struct {
	Insts      uint64 // per-thread instruction target
	Interval   uint64 // repartition interval in cycles
	SampleRate int    // ATD set sampling (paper: 32)
	L2SizeKB   int    // default L2 capacity for Figures 6, 7, 9
	// WorkloadLimit caps the number of workloads per thread count
	// (0 = all); used to keep tests and smoke runs fast.
	WorkloadLimit int
	// Parallelism bounds how many simulations run concurrently
	// (0 = GOMAXPROCS). Figure output is bit-identical at any setting.
	// It does not bound CPUs: the shared tapes of a group record on
	// goroutines of their own beside the simulations (cmp.RunGroup), so
	// even Parallelism 1 can keep two CPUs busy.
	Parallelism int
	// Progress, when non-nil, receives one line per completed
	// simulation. It may be called from multiple goroutines at once and
	// must be safe for concurrent use.
	Progress func(format string, args ...any)
	// OnJob, when non-nil, receives (completed, total) after each
	// prefetched simulation finishes; calls are serialized. cmd/repro
	// uses it for a live completed/total counter.
	OnJob func(done, total int)
}

// DefaultOptions returns the scaled defaults recorded in EXPERIMENTS.md.
func DefaultOptions() Options {
	return Options{
		Insts:      1_000_000,
		Interval:   250_000,
		SampleRate: 32,
		L2SizeKB:   2048,
	}
}

// Harness runs simulations through a shared worker pool, memoizing every
// unique configuration so overlapping figures simulate it once.
type Harness struct {
	opt       Options
	pool      *sched.Pool
	runs      *sched.Cache[cmp.Results]
	optRuns   *sched.Cache[optref.Stats] // Belady replays, keyed per workload × size
	simulated atomic.Int64               // completed simulations (cache misses only)
	insts     atomic.Uint64              // instructions those simulations committed

	tapeMu sync.Mutex
	tapes  cmp.TapeStats // summed over groups since the last TakeTapes, but PeakBytes is the largest group's
}

// New returns a harness for the options; zero fields take the
// DefaultOptions values (Parallelism 0 = GOMAXPROCS).
func New(opt Options) *Harness {
	def := DefaultOptions()
	if opt.Insts == 0 {
		opt.Insts = def.Insts
	}
	if opt.Interval == 0 {
		opt.Interval = def.Interval
	}
	if opt.SampleRate == 0 {
		opt.SampleRate = def.SampleRate
	}
	if opt.L2SizeKB == 0 {
		opt.L2SizeKB = def.L2SizeKB
	}
	pool := sched.NewPool(opt.Parallelism)
	return &Harness{
		opt:     opt,
		pool:    pool,
		runs:    sched.NewCache[cmp.Results](pool),
		optRuns: sched.NewCache[optref.Stats](pool),
	}
}

// Options returns the harness options.
func (h *Harness) Options() Options { return h.opt }

// Parallelism reports the worker-pool size actually in use.
func (h *Harness) Parallelism() int { return h.pool.Size() }

// Simulated reports how many simulations actually executed (cache hits
// and singleflight followers excluded).
func (h *Harness) Simulated() int64 { return h.simulated.Load() }

// SimulatedInsts reports the instructions committed by the simulations
// Simulated counts, each core's up to its crossing point: divided by host
// time it is the simulator's speed.
func (h *Harness) SimulatedInsts() uint64 { return h.insts.Load() }

// ran accounts for one completed simulation.
func (h *Harness) ran(res cmp.Results) {
	h.simulated.Add(1)
	var insts uint64
	for _, c := range res.PerCore {
		insts += c.Insts
	}
	h.insts.Add(insts)
}

// TakeTapes reports the private work of the simulations run since the
// last call, or since New: the trace events their tapes recorded and
// their cores replayed, and the largest tape memory one group held. It
// then starts counting afresh.
func (h *Harness) TakeTapes() cmp.TapeStats {
	h.tapeMu.Lock()
	defer h.tapeMu.Unlock()
	st := h.tapes
	h.tapes = cmp.TapeStats{}
	return st
}

func (h *Harness) addTapes(st cmp.TapeStats) {
	h.tapeMu.Lock()
	defer h.tapeMu.Unlock()
	h.tapes.Produced += st.Produced
	h.tapes.Replayed += st.Replayed
	h.tapes.PeakBytes = max(h.tapes.PeakBytes, st.PeakBytes)
}

// CachedRuns reports how many unique configurations are memoized.
func (h *Harness) CachedRuns() int { return h.runs.Len() }

func (h *Harness) progress(format string, args ...any) {
	if h.opt.Progress != nil {
		h.opt.Progress(format, args...)
	}
}

// limitWorkloads applies Options.WorkloadLimit.
func (h *Harness) limitWorkloads(ws []workload.Workload) []workload.Workload {
	if h.opt.WorkloadLimit > 0 && len(ws) > h.opt.WorkloadLimit {
		return ws[:h.opt.WorkloadLimit]
	}
	return ws
}

// l2Config builds the shared L2 for a run.
func (h *Harness) l2Config(kind plru.Kind, cores, sizeKB int) cache.Config {
	return cache.Config{
		Name:      "L2",
		SizeBytes: sizeKB * 1024,
		LineBytes: 128,
		Ways:      16,
		Policy:    kind,
		Cores:     cores,
		Seed:      7777,
	}
}

// RunSpec identifies one simulation: a workload on a sizeKB L2 under the
// given replacement policy and optional CPA acronym (empty =
// non-partitioned). It doubles as the run-cache key.
type RunSpec struct {
	W       workload.Workload
	Kind    plru.Kind
	Acronym string
	SizeKB  int
}

func (sp RunSpec) key() string {
	return fmt.Sprintf("%s|%s|%s|%d", sp.W.Name, sp.Kind, sp.Acronym, sp.SizeKB)
}

// isoWorkload is the single-thread workload used for isolation baselines.
func isoWorkload(bench string) workload.Workload {
	return workload.Workload{Name: "iso_" + bench, Benchmarks: []string{bench}}
}

// isoSpec is the isolation-baseline run for a benchmark: alone on a full
// sizeKB LRU L2 (the weighted-speedup denominator).
func isoSpec(bench string, sizeKB int) RunSpec {
	return RunSpec{W: isoWorkload(bench), Kind: plru.LRU, SizeKB: sizeKB}
}

// Run simulates the spec described by its arguments, memoizing the
// result. Concurrent callers of the same configuration share a single
// simulation (singleflight).
func (h *Harness) Run(ctx context.Context, w workload.Workload, kind plru.Kind, acronym string, sizeKB int) (cmp.Results, error) {
	return h.run(ctx, RunSpec{W: w, Kind: kind, Acronym: acronym, SizeKB: sizeKB})
}

func (h *Harness) run(ctx context.Context, sp RunSpec) (cmp.Results, error) {
	res, err := h.runGroup(ctx, []RunSpec{sp})
	if err != nil {
		return cmp.Results{}, err
	}
	return res[0], nil
}

// runGroup returns the results of specs, which share one workload. The
// ones nobody has memoized or is computing run as one cmp.RunGroup, on as
// many worker slots as there are of them, up to the pool's size; the
// others are waited for.
func (h *Harness) runGroup(ctx context.Context, specs []RunSpec) ([]cmp.Results, error) {
	keys := make([]string, len(specs))
	byKey := make(map[string]RunSpec, len(specs))
	for i, sp := range specs {
		keys[i] = sp.key()
		byKey[keys[i]] = sp
	}
	return h.runs.DoGroup(ctx, keys, func(ctx context.Context, keys []string, slots int) ([]cmp.Results, error) {
		systems := make([]*cmp.System, len(keys))
		for i, key := range keys {
			sys, err := h.system(byKey[key])
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", key, err)
			}
			systems[i] = sys
		}
		res, st, err := cmp.RunGroup(ctx, slots, systems...)
		if err != nil {
			return nil, err
		}
		h.addTapes(st)
		for i, r := range res {
			h.ran(r)
			h.progress("ran %-26s throughput=%.3f", keys[i], r.Throughput())
		}
		return res, nil
	})
}

// system builds the simulation of a spec.
func (h *Harness) system(sp RunSpec) (*cmp.System, error) {
	cfg := cmp.Config{
		Workload: sp.W,
		L2:       h.l2Config(sp.Kind, sp.W.Threads(), sp.SizeKB),
		Params:   cpu.DefaultParams(),
		L1:       cpu.DefaultL1Config(128),
		MaxInsts: h.opt.Insts,
	}
	if sp.Acronym != "" {
		cpaCfg, err := core.ParseAcronym(sp.Acronym)
		if err != nil {
			return nil, err
		}
		cpaCfg.Interval = h.opt.Interval
		cpaCfg.SampleRate = h.opt.SampleRate
		cfg.CPA = &cpaCfg
	}
	return cmp.New(cfg)
}

// Prefetch pushes every spec through the worker pool, deduplicating
// against each other and the run cache, and waits for all of them. The
// specs of one workload run as one group. It cancels outstanding work and
// returns on the first error. Figures call it before their serial
// assembly loops so the expensive simulations run in parallel while the
// assembled output stays deterministic.
func (h *Harness) Prefetch(ctx context.Context, specs []RunSpec) error {
	seen := make(map[string]bool, len(specs))
	group := make(map[string]int) // workload name -> index in groups
	var groups [][]RunSpec
	total := 0
	for _, sp := range specs {
		k := sp.key()
		if seen[k] {
			continue
		}
		seen[k] = true
		g, ok := group[sp.W.Name]
		if !ok {
			g = len(groups)
			group[sp.W.Name] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], sp)
		total++
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		done     int
	)
	for _, g := range groups {
		wg.Add(1)
		go func(g []RunSpec) {
			defer wg.Done()
			_, err := h.runGroup(ctx, g)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
					cancel()
				}
				return
			}
			for range g {
				done++
				if h.opt.OnJob != nil {
					h.opt.OnJob(done, total)
				}
			}
		}(g)
	}
	wg.Wait()
	return firstErr
}

// IsolationIPC returns the benchmark's IPC running alone on a full
// `sizeKB` LRU L2. The underlying run is memoized like any other.
func (h *Harness) IsolationIPC(ctx context.Context, bench string, sizeKB int) (float64, error) {
	res, err := h.run(ctx, isoSpec(bench, sizeKB))
	if err != nil {
		return 0, err
	}
	return res.PerCore[0].IPC, nil
}

// Summarize converts run results into the paper's three metrics using the
// isolation baselines for the same cache size.
func (h *Harness) Summarize(ctx context.Context, w workload.Workload, res cmp.Results, sizeKB int) (metrics.Summary, error) {
	threads := make([]metrics.Thread, len(res.PerCore))
	for i, c := range res.PerCore {
		iso, err := h.IsolationIPC(ctx, w.Benchmarks[i], sizeKB)
		if err != nil {
			return metrics.Summary{}, err
		}
		threads[i] = metrics.Thread{Benchmark: c.Benchmark, IPC: c.IPC, IsolationIPC: iso}
	}
	return metrics.Compute(threads)
}

// policyOf maps a CPA acronym to the L2 replacement policy it requires.
func policyOf(acronym string) (plru.Kind, error) {
	cfg, err := core.ParseAcronym(acronym)
	if err != nil {
		return 0, err
	}
	return cfg.Policy, nil
}

// PowerInputs assembles the power-model inputs for a finished run.
func (h *Harness) PowerInputs(w workload.Workload, res cmp.Results, kind plru.Kind, partitioned bool, sizeKB int) power.Inputs {
	geom := complexity.Geometry{
		SizeBytes: sizeKB * 1024,
		LineBytes: 128,
		Ways:      16,
		Cores:     w.Threads(),
		TagBits:   47,
		LineBits:  128 * 8,
	}
	extraKB := complexity.StorageKB(kind, geom, partitioned)
	var insts uint64
	for _, c := range res.PerCore {
		insts += c.Insts
	}
	if partitioned {
		// Per-core sampled ATD + SDH registers.
		atdCfg := profiling.Config{
			L2Sets: geom.Sets(), Ways: 16, LineBytes: 128,
			SampleRate: h.opt.SampleRate, Kind: kind, NRUScale: 1,
		}
		atdBits := atdCfg.StorageBits(geom.TagBits) + (16+1)*32 // SDH: 17 32-bit registers
		extraKB += float64(w.Threads()) * float64(atdBits) / 8 / 1024
	}
	return power.Inputs{
		Cores:        w.Threads(),
		SumIPC:       res.Throughput(),
		Cycles:       res.FinishCycles,
		Insts:        insts,
		L2SizeMB:     float64(sizeKB) / 1024,
		L2Accesses:   res.L2Accesses,
		L2Misses:     res.L2Misses,
		MemWrites:    res.MemWrites,
		ATDObserves:  res.ATDObserves,
		ExtraStateKB: extraKB,
	}
}
