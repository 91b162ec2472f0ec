// Package cmp assembles and runs the full CMP simulation: N cores with
// private L1 data caches sharing one L2, optionally governed by a dynamic
// cache partitioning system (internal/core).
//
// Scheduling. Every trace event of every core has a place in one global
// order: by the clock of its core when the event starts, ties to the
// lower core id. Running all events in that order — one event of the core
// with the smallest clock at a time — is the definition of a run, and
// the loop oracle_test.go keeps as its reference. But cores meet only at
// the shared L2, and 19 events in 20 (branches, L1 hits) never get there.
// RunContext therefore orders only what somebody else can see: the shared
// half of an event that missed its L1 (dirty-victim writeback, demand
// access, stall), the event on which a core reaches its instruction
// target, and the first event at or past a repartition boundary. Between
// two of those a core runs ahead on its own (cpu.Core.RunAhead), and stops
//
//	(a) on an event whose private half missed the L1;
//	(b) when a CPA partitions, in front of any event that starts at or
//	    after the CPA's next interval boundary;
//	(c) on the event that takes it to MaxInsts, if it has not crossed yet;
//	(d) once it has crossed, in front of any event at or after the
//	    smallest key an uncrossed core holds.
//
// Each core then holds one key, the start clock of the event it stopped
// on or in front of, and the scheduler elects the smallest (key, core id),
// ticks the CPA with it, finishes what that core had pending and lets it
// run ahead again. This is exact, not approximate: (1) the events run
// out of order are private ones, and a private event reads and writes
// its own core's tape (generator, predictor, L1), clock and counters only, so
// the shared halves — elected in key order — find the L2, the ATDs and
// the tracer in the state the full order leaves them in; (2) by (b) no
// core is past a boundary and none is short of it when the first key at
// or beyond it is elected, so Tick fires on the same cycle; (3) a run ends
// on the last crossing, an uncrossed core can only run events up to its
// own crossing (c) and a crossed one only events in front of a key that
// is not later than that crossing (d), so no core executes an event the
// full order would not have reached. Results, the traced access order
// and every repartition are bit-identical to the reference loop's;
// oracle_test.go checks that for every configuration.
//
// Groups. Systems that differ only in their L2 and CPA run the same
// private halves, so RunGroup runs them together on one tape per core
// (cpu.Tape) and in cycle lockstep, which bounds how much of the tapes is
// live; see RunGroup for why that changes nothing a run computes. Each
// shared tape records on a goroutine of its own, one chunk ahead of its
// readers, so the goroutines that run the systems only replay; the
// workers argument bounds those, not the recorders beside them.
//
// Cores that reach the per-thread instruction target keep running (to
// preserve contention, as in the paper's methodology) until every core
// has reached it; each core's IPC is measured at its own crossing point.
package cmp

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/workload"
	"repro/pkg/plru"
)

// Config describes one simulation.
type Config struct {
	Workload workload.Workload // one benchmark per core
	L2       cache.Config      // shared L2 (Cores must equal workload threads)
	CPA      *core.Config      // nil = unpartitioned
	Params   cpu.Params        // core latencies
	L1       cache.Config      // per-core private L1 template
	MaxInsts uint64            // per-thread instruction target
}

// DefaultL2Config returns the paper's shared L2 (2 MB, 16-way, 128 B
// lines) for the given policy and core count.
func DefaultL2Config(kind plru.Kind, cores int) cache.Config {
	return cache.Config{
		Name:      "L2",
		SizeBytes: 2 << 20,
		LineBytes: 128,
		Ways:      16,
		Policy:    kind,
		Cores:     cores,
		Seed:      12345,
	}
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.Workload.Threads() == 0 {
		return fmt.Errorf("cmp: workload is empty")
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	if c.L2.Cores != c.Workload.Threads() {
		return fmt.Errorf("cmp: L2 has %d cores, workload has %d threads",
			c.L2.Cores, c.Workload.Threads())
	}
	if err := c.L1.Validate(); err != nil {
		return err
	}
	if c.L1.LineBytes != c.L2.LineBytes {
		return fmt.Errorf("cmp: L1 line %dB != L2 line %dB", c.L1.LineBytes, c.L2.LineBytes)
	}
	if c.MaxInsts == 0 {
		return fmt.Errorf("cmp: MaxInsts must be positive")
	}
	if c.CPA != nil {
		if err := c.CPA.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// CoreResult holds one core's measurements at its crossing point.
type CoreResult struct {
	Benchmark string
	Insts     uint64
	Cycles    float64
	IPC       float64
	Stats     cpu.Stats
}

// Results of one simulation.
type Results struct {
	Workload     string
	ConfigName   string // CPA acronym or policy name
	PerCore      []CoreResult
	FinishCycles float64 // global cycle when the last core crossed
	// Whole-run event totals (for the power model): these cover the full
	// run including post-crossing interference execution.
	L2Accesses   uint64
	L2Misses     uint64
	MemWrites    uint64 // dirty-line traffic to memory (L2 writebacks + L2-missing L1 writebacks)
	ATDObserves  uint64
	Repartitions uint64
	// Demand-only L2 totals: program accesses through Access, excluding
	// the L1 writeback updates folded into L2Accesses. This is the
	// population a recorded optref trace replays, so OPT comparisons use
	// these, not L2Accesses.
	DemandAccesses uint64
	DemandHits     uint64
}

// DemandHitRate returns DemandHits/DemandAccesses (0 for an idle run).
func (r Results) DemandHitRate() float64 {
	if r.DemandAccesses > 0 {
		return float64(r.DemandHits) / float64(r.DemandAccesses)
	}
	return 0
}

// Throughput returns the summed per-core IPC.
func (r Results) Throughput() float64 {
	var t float64
	for _, c := range r.PerCore {
		t += c.IPC
	}
	return t
}

// System is a runnable CMP simulation.
type System struct {
	cfg   Config
	l2    *cache.Cache
	cpa   *core.System
	cores []*cpu.Core

	memWrites uint64 // L1 writebacks that missed the L2 (straight to memory)

	demandAccesses uint64 // program accesses through Access (no writebacks)
	demandHits     uint64
	tracer         func(core int, addr uint64) // demand-access capture hook
}

// SetTracer registers a hook invoked for every demand L2 access (in
// global interleaved order, before the access executes), the capture
// point internal/optref records Belady replay traces from. Writebacks
// are not traced — they are not program accesses. A nil fn disables
// tracing.
func (s *System) SetTracer(fn func(core int, addr uint64)) { s.tracer = fn }

// New builds the system. The L2's replacement policy comes from cfg.L2;
// when a CPA config is present its policy must match (checked by
// core.NewSystem).
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, l2: cache.New(cfg.L2)}
	if cfg.CPA != nil {
		sys, err := core.NewSystem(*cfg.CPA, s.l2)
		if err != nil {
			return nil, err
		}
		s.cpa = sys
	}
	for i, b := range cfg.Workload.Benchmarks {
		prof, err := workload.Get(b)
		if err != nil {
			return nil, err
		}
		l1 := cfg.L1
		l1.Name = fmt.Sprintf("L1D%d", i)
		s.cores = append(s.cores, cpu.New(i, prof, workload.Seed(b), l1, cfg.Params, s))
	}
	return s, nil
}

// L2Cache exposes the shared cache (tests, examples).
func (s *System) L2Cache() *cache.Cache { return s.l2 }

// CPA exposes the partitioning system (nil when unpartitioned).
func (s *System) CPA() *core.System { return s.cpa }

// Access implements cpu.SharedL2: it feeds the profiling monitor and
// performs the L2 access.
func (s *System) Access(coreID int, addr uint64, write bool) bool {
	if s.cpa != nil {
		s.cpa.OnAccess(coreID, addr)
	}
	if s.tracer != nil {
		s.tracer(coreID, addr)
	}
	s.demandAccesses++
	if s.l2.AccessRW(coreID, addr, write).Hit {
		s.demandHits++
		return true
	}
	return false
}

// Writeback implements cpu.SharedL2: a dirty L1 victim updates the L2
// without being profiled (it is not a program access). A writeback that
// misses the L2 goes straight to memory; it does not allocate.
func (s *System) Writeback(coreID int, addr uint64) {
	if s.l2.Contains(addr) {
		s.l2.AccessRW(coreID, addr, true)
		return
	}
	s.memWrites++
}

// Run executes the simulation until every core has committed
// cfg.MaxInsts instructions and returns the measurements.
func (s *System) Run() Results {
	res, _ := s.RunContext(context.Background())
	return res
}

// cancelCheckEvery is how many trace events pass between context polls in
// RunContext, and the most events one core runs ahead in one go — coarse
// enough to stay off the hot path, fine enough that cancellation lands
// within a fraction of a millisecond however long the cores' private
// stretches are.
const cancelCheckEvery = 4096

// horizonStep is how many cycles the systems of a group run before they
// wait for each other. It bounds the tape a group holds: a chunk is live
// from the fastest reader's recording of it to the slowest reader's
// passing it, and lockstep keeps the readers within one step of the same
// clock. It has no effect on what a run computes.
const horizonStep = 10_000

// RunContext is Run with cooperative cancellation: the scheduler polls
// ctx every few thousand events and returns ctx.Err() (with zero Results)
// once it is done. A background context adds no measurable overhead. It
// is a group of one (RunGroup).
//
// See the package comment for the scheduling discipline and why it is
// exact.
func (s *System) RunContext(ctx context.Context) (Results, error) {
	res, _, err := RunGroup(ctx, 1, s)
	if err != nil {
		return Results{}, err
	}
	return res[0], nil
}

// TapeStats counts the private work of a group: the trace events its
// tapes recorded in the chunks some core reached, the events its cores
// replayed, and the tape memory it allocated, which is the most it held
// at once.
type TapeStats struct {
	Produced  uint64
	Replayed  uint64
	PeakBytes int
}

// RunGroup runs systems of one workload together and returns their
// results in order. The systems may differ in L2 size, policy and CPA,
// but not in their cores: the same profile, id and seed per core, the
// same L1, Params and MaxInsts, and none of them run yet. Core i of every
// system then replays one shared tape (cpu.Tape), so each core's private
// half is produced once for the whole group. In a group of two or more
// each tape records on a goroutine of its own, one chunk ahead of its
// readers (cpu.Tape.Prerecord), so up to workers+len(tapes) goroutines
// run at once; RunGroup stops them all before it returns, however it
// returns. A group of one records inline.
//
// The systems advance in lockstep: each runs its election loop up to a
// cycle horizon, workers of them at a time, and the horizon moves on by
// horizonStep once all have reached it. Between two horizons the tapes
// recycle every chunk all live readers have passed. Each system's run is
// the one RunContext would do alone, bit for bit; the horizon is one more
// stop of the kind the package comment lists, so it only splits private
// stretches, and a shared tape replays the events its own would have
// produced.
func RunGroup(ctx context.Context, workers int, systems ...*System) ([]Results, TapeStats, error) {
	if len(systems) == 0 {
		return nil, TapeStats{}, fmt.Errorf("cmp: empty group")
	}
	first := systems[0]
	seen := make(map[*System]bool, len(systems))
	for _, s := range systems {
		if seen[s] {
			return nil, TapeStats{}, fmt.Errorf("cmp: a system appears twice in the group")
		}
		seen[s] = true
		if err := first.interchangeable(s); err != nil {
			return nil, TapeStats{}, err
		}
	}
	tapes := make([]*cpu.Tape, len(first.cores))
	for i, c := range first.cores {
		tapes[i] = c.Tape()
	}
	for _, s := range systems[1:] {
		for i := range s.cores {
			s.cores[i] = cpu.NewCore(tapes[i], s.cfg.Params, s)
		}
	}
	for _, t := range tapes {
		defer t.Prerecord()() // a no-op for a group of one
	}

	runs := make([]*run, len(systems))
	for j, s := range systems {
		runs[j] = s.newRun()
	}
	live := append([]*run(nil), runs...)
	for horizon := float64(horizonStep); len(live) > 0; horizon += horizonStep {
		if err := ctx.Err(); err != nil {
			return nil, TapeStats{}, err
		}
		if err := advance(ctx, workers, live, horizon); err != nil {
			return nil, TapeStats{}, err
		}
		n := 0
		for _, r := range live {
			if !r.done {
				live[n] = r
				n++
				continue
			}
			for _, c := range r.s.cores {
				c.Retire()
			}
		}
		live = live[:n]
		for _, t := range tapes {
			t.Recycle()
		}
	}

	res := make([]Results, len(runs))
	var st TapeStats
	for j, r := range runs {
		res[j] = r.s.results(r.results)
		for _, c := range r.s.cores {
			st.Replayed += c.Stats().Branches + c.Stats().L1Accesses
		}
	}
	for _, t := range tapes {
		st.Produced += t.Produced()
		st.PeakBytes += t.Bytes()
	}
	return res, st, nil
}

// interchangeable reports why o's cores cannot share s's tapes, if they
// cannot.
func (s *System) interchangeable(o *System) error {
	if len(o.cores) != len(s.cores) || o.cfg.MaxInsts != s.cfg.MaxInsts || o.cfg.Params != s.cfg.Params {
		return fmt.Errorf("cmp: %s and %s differ in cores, MaxInsts or Params", s.configName(), o.configName())
	}
	for i, c := range o.cores {
		if !c.Tape().Interchangeable(s.cores[i].Tape()) {
			return fmt.Errorf("cmp: core %d of %s and %s runs different programs", i, s.configName(), o.configName())
		}
		if c.Cycles() != 0 || c.Stats() != (cpu.Stats{}) {
			return fmt.Errorf("cmp: core %d of %s has already run", i, o.configName())
		}
	}
	return nil
}

// advance takes every run up to the horizon, on up to workers goroutines.
// Each worker starts with its own share of the runs and then takes any
// the others have not: a run that keeps to one worker keeps its L2 and
// CPA state in one processor's cache, which measured 5 % faster on the
// Figure-7 sweep than handing runs out in order.
func advance(ctx context.Context, workers int, runs []*run, horizon float64) error {
	if workers <= 1 || len(runs) == 1 {
		for _, r := range runs {
			if err := r.advance(ctx, horizon); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg      sync.WaitGroup
		claimed = make([]atomic.Bool, len(runs))
		errs    = make([]error, len(runs))
	)
	w := min(workers, len(runs))
	for g := range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range runs {
				i := (g*len(runs)/w + k) % len(runs)
				if claimed[i].CompareAndSwap(false, true) {
					errs[i] = runs[i].advance(ctx, horizon)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// run is one system's election loop, paused between horizons.
type run struct {
	s           *System
	partitioned bool
	// keys[i] is the start clock of core i's first event the scheduler
	// has yet to order; shared[i] says that event's private half already
	// ran and its shared half is waiting for its turn.
	keys       []float64
	shared     []bool
	crossed    []bool
	results    []CoreResult
	remaining  int
	sinceCheck int
	done       bool
}

func (s *System) newRun() *run {
	n := len(s.cores)
	r := &run{
		s:           s,
		partitioned: s.cpa != nil && s.cpa.Config().Partitioned(),
		keys:        make([]float64, n),
		shared:      make([]bool, n),
		crossed:     make([]bool, n),
		results:     make([]CoreResult, n),
		remaining:   n,
	}
	for i, c := range s.cores {
		r.keys[i] = c.Cycles()
	}
	return r
}

// advance runs the election loop until the run is done or the smallest
// key reaches the horizon.
func (r *run) advance(ctx context.Context, horizon float64) error {
	s := r.s
	n := len(s.cores)
	keys, shared, crossed := r.keys, r.shared, r.crossed
	done := ctx.Done()
	for {
		if done != nil && r.sinceCheck >= cancelCheckEvery {
			r.sinceCheck = 0
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		// Elect the smallest (start clock, core id).
		min := 0
		for i := 1; i < n; i++ {
			if keys[i] < keys[min] {
				min = i
			}
		}
		if keys[min] >= horizon {
			return nil
		}
		c := s.cores[min]
		if s.cpa != nil {
			// Global time is the elected event's start clock.
			s.cpa.Tick(uint64(keys[min]))
		}
		if shared[min] {
			c.Shared()
		}
		if !crossed[min] && c.Insts() >= s.cfg.MaxInsts {
			crossed[min] = true
			r.results[min] = CoreResult{
				Benchmark: s.cfg.Workload.Benchmarks[min],
				Insts:     c.Insts(),
				Cycles:    c.Cycles(),
				IPC:       float64(c.Insts()) / c.Cycles(),
				Stats:     c.Stats(),
			}
			if r.remaining--; r.remaining == 0 {
				r.done = true
				return nil
			}
		}

		// Let the core run ahead to its next event that needs ordering,
		// and not past the horizon.
		before := horizon
		if r.partitioned {
			before = math.Min(before, float64(s.cpa.NextBoundary())) // rule (b)
		}
		crossAt := s.cfg.MaxInsts // rule (c)
		if crossed[min] {
			crossAt = math.MaxUint64
			// Rule (d): stay in front of every uncrossed core's key. An
			// equal clock still goes first on a lower core id.
			for u, k := range keys {
				if crossed[u] {
					continue
				}
				if min < u {
					k = math.Nextafter(k, math.Inf(1))
				}
				if k < before {
					before = k
				}
			}
		}
		var events int
		keys[min], events, shared[min] = c.RunAhead(before, crossAt, cancelCheckEvery)
		r.sinceCheck += events
	}
}

// results assembles the Results of a finished run from the per-core
// crossing snapshots and the whole-run totals.
func (s *System) results(perCore []CoreResult) Results {
	res := Results{
		Workload:   s.cfg.Workload.Name,
		ConfigName: s.configName(),
		PerCore:    perCore,
		L2Accesses: s.l2.Stats().TotalAccesses(),
		L2Misses:   s.l2.Stats().TotalMisses(),
		MemWrites:  s.l2.Stats().TotalWritebacks() + s.memWrites,

		DemandAccesses: s.demandAccesses,
		DemandHits:     s.demandHits,
	}
	for _, c := range s.cores {
		if c.Cycles() > res.FinishCycles {
			res.FinishCycles = c.Cycles()
		}
	}
	if s.cpa != nil {
		res.Repartitions = s.cpa.Repartitions()
		for _, m := range s.cpa.Monitors() {
			res.ATDObserves += m.Observed()
		}
	}
	return res
}

func (s *System) configName() string {
	if s.cpa != nil && s.cpa.Config().Acronym != "" {
		return s.cpa.Config().Acronym
	}
	return "none-" + s.cfg.L2.Policy.String()
}
