// Package cpu models one core of the paper's CMP: an event-driven timing
// model that consumes a synthetic trace, runs a private L1 data cache and
// a branch predictor, and charges latency for L2 and memory accesses.
//
// This is the simulator-substrate substitution for the paper's Turandot
// out-of-order core: the 8-wide window is summarized by the benchmark's
// BaseIPC, the front end by the simulated tournament predictor and BTB
// penalties, and memory-level parallelism by the profile's MLPOverlap
// factor that hides part of every L2/memory penalty.
package cpu

import (
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/trace"
	"repro/pkg/plru"
)

// Params are the latency parameters of Table II, shared by all cores.
type Params struct {
	L2HitPenalty      uint64 // L1-miss/L2-hit penalty in cycles (paper: 11)
	MemPenalty        uint64 // additional L2-miss penalty (paper: 250)
	MispredictPenalty uint64 // branch direction misprediction
	BTBMissPenalty    uint64 // taken branch missing in the BTB (paper: min 3)
}

// DefaultParams returns the paper's processor setup.
func DefaultParams() Params {
	return Params{
		L2HitPenalty:      11,
		MemPenalty:        250,
		MispredictPenalty: 12,
		BTBMissPenalty:    3,
	}
}

// DefaultL1Config returns the paper's private L1 data cache (32 KB 2-way
// with the experiment's line size).
func DefaultL1Config(lineBytes int) cache.Config {
	return cache.Config{
		Name:      "L1D",
		SizeBytes: 32 * 1024,
		LineBytes: lineBytes,
		Ways:      2,
		Policy:    plru.LRU,
		Cores:     1,
	}
}

// SharedL2 is the core's view of the shared cache, implemented by the cmp
// system so the CPA can observe every access.
type SharedL2 interface {
	// Access performs a demand L2 access by `core` and reports whether it
	// hit. Demand accesses are observed by the profiling logic.
	Access(core int, addr uint64, write bool) (hit bool)
	// Writeback delivers a dirty L1 victim line to the L2. Writebacks
	// bypass the profiling logic (they are not program accesses).
	Writeback(core int, addr uint64)
}

// Stats are the core's accumulated event counts.
type Stats struct {
	Insts        uint64
	L1Accesses   uint64
	L1Misses     uint64
	L1Writebacks uint64
	L2Accesses   uint64
	L2Misses     uint64
	Branches     uint64
	Mispredicts  uint64
	BTBMisses    uint64
}

// Core is one simulated core.
type Core struct {
	id     int
	gen    *trace.Generator
	prof   trace.Profile
	params Params
	l1     *cache.Cache
	bp     *bpred.Predictor
	l2     SharedL2

	cycles float64
	stats  Stats
	miss   l1Miss // the L1 miss whose shared half is still to run
}

// l1Miss is what the private half of an event leaves for the shared half.
type l1Miss struct {
	addr        uint64 // the missing access
	victim      uint64 // line address of the L1's dirty victim
	write       bool
	dirtyVictim bool
}

// New builds a core running the given profile.
func New(id int, prof trace.Profile, seed uint64, l1cfg cache.Config, params Params, l2 SharedL2) *Core {
	return &Core{
		id:     id,
		gen:    trace.NewGenerator(prof, id, seed, l1cfg.LineBytes),
		prof:   prof,
		params: params,
		l1:     cache.New(l1cfg),
		bp:     bpred.New(bpred.DefaultConfig()),
		l2:     l2,
	}
}

// ID returns the core index.
func (c *Core) ID() int { return c.id }

// Profile returns the benchmark profile the core runs.
func (c *Core) Profile() trace.Profile { return c.prof }

// Cycles returns the core's local clock.
func (c *Core) Cycles() float64 { return c.cycles }

// Insts returns committed instructions.
func (c *Core) Insts() uint64 { return c.stats.Insts }

// Stats returns a copy of the core's counters.
func (c *Core) Stats() Stats { return c.stats }

// IPC returns instructions per cycle so far (0 before any work).
func (c *Core) IPC() float64 {
	if c.cycles == 0 {
		return 0
	}
	return float64(c.stats.Insts) / c.cycles
}

// Step consumes one whole trace event — its private half and, when it has
// one, its shared half — and returns the core's clock after it. The
// simulator proper runs cores through RunAhead and Shared; Step is for
// driving one core directly.
func (c *Core) Step() float64 {
	if c.private() {
		c.Shared()
	}
	return c.cycles
}

// RunAhead runs whole events for as long as they concern nobody but this
// core: branches and L1 hits. It stops
//
//   - on an event that missed the L1, with that event's private half done
//     and its shared half (dirty-victim writeback, L2 access, stall) left
//     for Shared: shared is true and start is the event's start clock;
//   - on the event that takes the core to crossAt committed instructions:
//     start is that event's start clock (the event may need Shared too);
//   - in front of an event whose start clock is not below `before`, and
//     after maxEvents events: start is then the core's clock, which is the
//     start clock of the event it has not begun.
//
// start is the core's place in the global order of events (a core's
// events are ordered by start clock), and events is how many events ran,
// the last one included. After shared is reported the caller must call
// Shared before it calls RunAhead or Step again.
func (c *Core) RunAhead(before float64, crossAt uint64, maxEvents int) (start float64, events int, shared bool) {
	for events < maxEvents && c.cycles < before {
		start = c.cycles
		events++
		if c.private() {
			return start, events, true
		}
		if c.stats.Insts >= crossAt {
			return start, events, false
		}
	}
	return c.cycles, events, false
}

// private runs the half of the next event that touches only this core:
// the generator draw, the clock advance and the predictor or L1 access.
// It reports whether the event missed the L1 and so has a shared half,
// which it leaves in c.miss.
func (c *Core) private() bool {
	e := c.gen.Next()
	c.stats.Insts += uint64(e.Insts)
	c.cycles += float64(e.Insts) / c.prof.BaseIPC

	switch e.Kind {
	case trace.Branch:
		c.stats.Branches++
		out := c.bp.Lookup(e.Addr, e.Taken)
		if !out.DirectionCorrect {
			c.stats.Mispredicts++
			c.cycles += float64(c.params.MispredictPenalty)
		} else if !out.BTBHit {
			c.stats.BTBMisses++
			c.cycles += float64(c.params.BTBMissPenalty)
		}
	case trace.Mem:
		c.stats.L1Accesses++
		r := c.l1.AccessRW(0, e.Addr, e.Write)
		if r.Hit {
			return false // L1 hits are pipelined away
		}
		c.stats.L1Misses++
		c.miss = l1Miss{addr: e.Addr, write: e.Write, dirtyVictim: r.Writeback, victim: r.EvictedAddr}
		return true
	}
	return false
}

// Shared runs the shared half of the event RunAhead stopped on: it
// delivers the L1's dirty victim, performs the demand L2 access and
// charges the stall (Params.MemPenalty more on an L2 miss).
func (c *Core) Shared() {
	m := c.miss
	if m.dirtyVictim {
		// Dirty L1 victim: deliver it to the L2 (no stall; the write
		// buffer hides it, but the traffic is real).
		c.stats.L1Writebacks++
		c.l2.Writeback(c.id, m.victim)
	}
	c.stats.L2Accesses++
	penalty := c.params.L2HitPenalty
	if !c.l2.Access(c.id, m.addr, m.write) {
		c.stats.L2Misses++
		penalty += c.params.MemPenalty
	}
	if m.write {
		// Stores retire through the store buffer: no pipeline stall,
		// only the traffic and energy are accounted.
		return
	}
	c.cycles += float64(penalty) * (1 - c.prof.MLPOverlap)
}
