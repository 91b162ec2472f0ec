// Package cpu models one core of the paper's CMP: an event-driven timing
// model that consumes a synthetic trace, runs a private L1 data cache and
// a branch predictor, and charges latency for L2 and memory accesses. The
// trace, the L1 and the predictor form a Tape that several Cores — the
// same core in different configurations — can replay. A lone Core records
// its tape as it goes; a tape with several readers can record on a
// goroutine of its own, one chunk ahead of them (Tape.Prerecord).
//
// This is the simulator-substrate substitution for the paper's Turandot
// out-of-order core: the 8-wide window is summarized by the benchmark's
// BaseIPC, the front end by the simulated tournament predictor and BTB
// penalties, and memory-level parallelism by the profile's MLPOverlap
// factor that hides part of every L2/memory penalty.
package cpu

import (
	"encoding/binary"

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

// Core is one simulated core. It replays its Tape, which ran the
// generator, the L1 and the predictor, and adds what the tape cannot
// know: the clock and the counters, and the shared half of every L1 miss.
type Core struct {
	id     int
	tape   *Tape
	prof   trace.Profile
	params Params
	l2     SharedL2

	ch  *chunk // the chunk holding the next event
	pos int    // the next event's offset in ch.buf

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

// New builds a core running the given profile on a tape of its own.
func New(id int, prof trace.Profile, seed uint64, l1cfg cache.Config, params Params, l2 SharedL2) *Core {
	return NewCore(NewTape(id, prof, seed, l1cfg), params, l2)
}

// NewCore builds a core that replays t from its first event. A tape that
// has recycled its first events has no room for another reader, and
// NewCore panics.
func NewCore(t *Tape, params Params, l2 SharedL2) *Core {
	c := &Core{id: t.id, tape: t, prof: t.prof, params: params, l2: l2}
	c.ch = t.attach(c)
	return c
}

// Tape returns the tape the core replays.
func (c *Core) Tape() *Tape { return c.tape }

// Retire stops the core from holding back its tape's recycling. A retired
// core must not run again.
func (c *Core) Retire() { c.tape.detach(c) }

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
		if n, last := c.plain(before, crossAt, maxEvents-events); n > 0 {
			events += n
			if c.stats.Insts >= crossAt {
				return last, events, false
			}
			continue
		}
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

// plain replays, with the clock and the counters in registers, the run of
// L1 hits and predicted branches (with short instruction counts) at the
// head of the current chunk: up to max of them, and not beyond the first
// that starts at or after before or takes the core to crossAt. Their
// private halves are the same additions in the same order as private's.
// It returns how many it replayed and the start clock of the last.
func (c *Core) plain(before float64, crossAt uint64, max int) (n int, last float64) {
	buf, i := c.ch.buf, c.pos
	cycles, insts, ipc := c.cycles, c.stats.Insts, c.prof.BaseIPC
	var branches uint64
	for n < max && cycles < before && insts < crossAt && i < len(buf) {
		b := buf[i]
		short := uint64(b >> kindBits)
		if b&^1&kindMask != evHit || short == 0 { // evHit or evBranch, short count
			break
		}
		i++
		n++
		last = cycles
		cycles += float64(short) / ipc
		insts += short
		branches += uint64(b & 1)
	}
	c.pos, c.cycles, c.stats.Insts = i, cycles, insts
	c.stats.Branches += branches
	c.stats.L1Accesses += uint64(n) - branches
	return n, last
}

// private runs the half of the next event that touches only this core:
// the tape's record of the generator draw and the predictor or L1 access,
// and the clock advance. It reports whether the event missed the L1 and so
// has a shared half, which it leaves in c.miss.
func (c *Core) private() bool {
	if c.pos == len(c.ch.buf) {
		c.ch, c.pos = c.tape.next(c), 0
	}
	buf := c.ch.buf
	b := buf[c.pos]
	c.pos++
	insts := uint32(b >> kindBits)
	if insts == 0 {
		insts = binary.LittleEndian.Uint32(buf[c.pos:])
		c.pos += 4
	}
	c.stats.Insts += uint64(insts)
	c.cycles += float64(insts) / c.prof.BaseIPC

	switch k := b & kindMask; k {
	case evHit:
		c.stats.L1Accesses++ // L1 hits are pipelined away
	case evBranch:
		c.stats.Branches++
	case evMispredict:
		c.stats.Branches++
		c.stats.Mispredicts++
		c.cycles += float64(c.params.MispredictPenalty)
	case evBTBMiss:
		c.stats.Branches++
		c.stats.BTBMisses++
		c.cycles += float64(c.params.BTBMissPenalty)
	default:
		c.stats.L1Accesses++
		c.stats.L1Misses++
		c.miss = l1Miss{addr: binary.LittleEndian.Uint64(buf[c.pos:]), write: k&missWrite != 0, dirtyVictim: k&missDirty != 0}
		c.pos += 8
		if c.miss.dirtyVictim {
			c.miss.victim = binary.LittleEndian.Uint64(buf[c.pos:])
			c.pos += 8
		}
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
