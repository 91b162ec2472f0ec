// Package optref is the offline-optimal (Belady/OPT) reference engine:
// given a recorded access trace, it computes the eviction decisions an
// omniscient policy would make under the same set/way/partition-mask
// constraints the real replacement policies operate under, and reports
// the resulting hit counts. Every online policy's hit rate divided by
// OPT's is its measured competitive position — the principled yardstick
// "On the complexity of cache analysis for different replacement
// policies" and "A Unified Framework for Quantitative Cache Analysis"
// (PAPERS.md) frame policies by, and the scoreboard the experiment
// harness and the cpacache differential suite grade against.
//
// The engine is two-pass. Pass one walks the trace backward building a
// next-use index: for every reference, the position of the next
// reference to the same line (or "never"). Pass two replays the trace
// forward against a simulated set-associative array, resolving hits
// through a resident-line map in O(1) and misses by scanning the at
// most `ways` candidate slots for the one whose next use lies farthest
// in the future — Belady's choice — restricted to the requesting
// core's way mask. With fixed associativity the whole replay is O(1)
// amortized per access.
//
// Mask constraints follow pkg/cpacache's fill order: a fill prefers an
// invalid way inside the requester's partition mask, then any invalid
// way (cold misses may spill across partitions), and only then evicts —
// always from inside the mask. internal/cache differs on cold fills: it
// takes the first invalid way of the set, inside the mask or not, so
// with partitions the two orders can pick different invalid ways. Masks can change mid-trace (the paper's dynamic
// repartitioning); the recorded mask updates replay at the exact trace
// positions they occurred at.
//
// Three reference semantics cover both consumers: Access is a hardware
// demand access (hit, or miss that fills — internal/cmp's L2 stream);
// Lookup and Store split the software cache's Get/Set pair (a Lookup
// miss does not fill; a Store installs or refreshes without counting as
// a hit or a miss). Belady's exchange argument makes the farthest-
// next-use choice optimal for demand-fill traces; for Lookup/Store
// traces it is the same deterministic yardstick applied to the
// recorded fill points.
package optref

import (
	"fmt"
	"math"

	"repro/pkg/plru"
)

// Op identifies a trace event's semantics.
type Op uint8

const (
	// OpAccess is a demand access: a hit, or a miss that fills the line
	// (hardware cache semantics — what internal/cmp's L2 sees).
	OpAccess Op = iota
	// OpLookup is a pure lookup: a hit or a miss, never a fill
	// (pkg/cpacache's Get).
	OpLookup
	// OpStore installs the line if absent (choosing a victim if the set
	// is full) or refreshes it if resident; it counts neither a hit nor
	// a miss (pkg/cpacache's Set).
	OpStore
	// opMasks is an interleaved partition-mask update; the event's Line
	// indexes Trace.masks.
	opMasks
)

// Event is one recorded reference (or mask update) in a Trace.
type Event struct {
	Op   Op
	Core int32  // requesting core / tenant
	Set  int32  // cache set the line maps to
	Line uint64 // the line's full identity (address line or cache key)
}

// Trace is a recorded access stream with interleaved mask updates.
// Record with Access/Lookup/Store/SetMasks in execution order; the zero
// value is ready to use. A Trace is not safe for concurrent recording.
type Trace struct {
	events []Event
	masks  [][]plru.WayMask
}

// Access records a demand access (fills on miss).
func (t *Trace) Access(core, set int, line uint64) {
	t.events = append(t.events, Event{Op: OpAccess, Core: int32(core), Set: int32(set), Line: line})
}

// Lookup records a pure lookup (never fills).
func (t *Trace) Lookup(core, set int, line uint64) {
	t.events = append(t.events, Event{Op: OpLookup, Core: int32(core), Set: int32(set), Line: line})
}

// Store records an install/refresh (fills on absence, no hit/miss).
func (t *Trace) Store(core, set int, line uint64) {
	t.events = append(t.events, Event{Op: OpStore, Core: int32(core), Set: int32(set), Line: line})
}

// SetMasks records a partition-mask change taking effect at this trace
// position; masks[core] scopes which ways core may evict from. The
// slice is copied.
func (t *Trace) SetMasks(masks []plru.WayMask) {
	t.masks = append(t.masks, append([]plru.WayMask(nil), masks...))
	t.events = append(t.events, Event{Op: opMasks, Line: uint64(len(t.masks) - 1)})
}

// Len reports the number of recorded reference events (mask updates
// excluded).
func (t *Trace) Len() int {
	n := 0
	for _, ev := range t.events {
		if ev.Op != opMasks {
			n++
		}
	}
	return n
}

// Config describes the geometry OPT replays against — the same sets,
// ways and core count the traced cache had.
type Config struct {
	Sets, Ways, Cores int
	// Masks are the initial per-core partition masks; nil means every
	// core may evict from every way until the first recorded SetMasks.
	Masks []plru.WayMask
}

func (c Config) validate() error {
	if c.Sets <= 0 {
		return fmt.Errorf("optref: sets must be positive, got %d", c.Sets)
	}
	if c.Ways <= 0 || c.Ways > plru.MaxWays {
		return fmt.Errorf("optref: ways must be in [1,%d], got %d", plru.MaxWays, c.Ways)
	}
	if c.Cores <= 0 {
		return fmt.Errorf("optref: cores must be positive, got %d", c.Cores)
	}
	if c.Masks != nil && len(c.Masks) != c.Cores {
		return fmt.Errorf("optref: %d masks for %d cores", len(c.Masks), c.Cores)
	}
	return nil
}

// CoreStats counts one core's references under OPT replay.
type CoreStats struct {
	Accesses uint64 // counted references (Access + Lookup)
	Hits     uint64
}

// Misses returns Accesses - Hits.
func (c CoreStats) Misses() uint64 { return c.Accesses - c.Hits }

// Stats is the outcome of an OPT replay.
type Stats struct {
	PerCore []CoreStats
}

// Accesses sums counted references over cores.
func (s Stats) Accesses() uint64 {
	var t uint64
	for _, c := range s.PerCore {
		t += c.Accesses
	}
	return t
}

// Hits sums hits over cores.
func (s Stats) Hits() uint64 {
	var t uint64
	for _, c := range s.PerCore {
		t += c.Hits
	}
	return t
}

// Misses sums misses over cores.
func (s Stats) Misses() uint64 { return s.Accesses() - s.Hits() }

// HitRate returns Hits/Accesses (0 for an empty trace).
func (s Stats) HitRate() float64 {
	if acc := s.Accesses(); acc > 0 {
		return float64(s.Hits()) / float64(acc)
	}
	return 0
}

// setLine identifies a cacheable object: the set it maps to plus its
// full line identity (two keys may share low bits but map to different
// sets; the pair is what residency means).
type setLine struct {
	set  int32
	line uint64
}

// never marks a reference whose line is not referenced again.
const never = math.MaxInt64

// Replay runs the mask-constrained Belady simulation over the trace and
// returns the per-core hit statistics. Replay is deterministic: ties in
// the farthest-next-use choice break toward the lowest way index.
func Replay(cfg Config, tr *Trace) (Stats, error) {
	if err := cfg.validate(); err != nil {
		return Stats{}, err
	}
	full := plru.Full(cfg.Ways)
	masks := make([]plru.WayMask, cfg.Cores)
	for i := range masks {
		if cfg.Masks != nil {
			masks[i] = cfg.Masks[i] & full
		} else {
			masks[i] = full
		}
	}

	events := tr.events
	// Pass one: next-use indexing. nextUse[i] is the index of the next
	// reference to events[i]'s line, or never.
	nextUse := make([]int64, len(events))
	last := make(map[setLine]int64)
	for i := len(events) - 1; i >= 0; i-- {
		ev := events[i]
		if ev.Op == opMasks {
			continue
		}
		if ev.Set < 0 || int(ev.Set) >= cfg.Sets {
			return Stats{}, fmt.Errorf("optref: event %d references set %d outside [0,%d)", i, ev.Set, cfg.Sets)
		}
		if ev.Core < 0 || int(ev.Core) >= cfg.Cores {
			return Stats{}, fmt.Errorf("optref: event %d references core %d outside [0,%d)", i, ev.Core, cfg.Cores)
		}
		k := setLine{set: ev.Set, line: ev.Line}
		if nxt, ok := last[k]; ok {
			nextUse[i] = nxt
		} else {
			nextUse[i] = never
		}
		last[k] = int64(i)
	}

	// Pass two: forward Belady replay.
	slotLine := make([]uint64, cfg.Sets*cfg.Ways)
	slotNext := make([]int64, cfg.Sets*cfg.Ways)
	validMask := make([]plru.WayMask, cfg.Sets) // valid ways per set
	resident := make(map[setLine]int32, cfg.Sets*cfg.Ways)
	stats := Stats{PerCore: make([]CoreStats, cfg.Cores)}

	for i, ev := range events {
		if ev.Op == opMasks {
			upd := tr.masks[ev.Line]
			for c := 0; c < cfg.Cores && c < len(upd); c++ {
				if m := upd[c] & full; m != 0 {
					masks[c] = m
				}
			}
			continue
		}
		st := &stats.PerCore[ev.Core]
		if ev.Op != OpStore {
			st.Accesses++
		}
		k := setLine{set: ev.Set, line: ev.Line}
		base := int(ev.Set) * cfg.Ways
		if w, ok := resident[k]; ok {
			// Hit (or Store refresh): push the line's next use forward.
			if ev.Op != OpStore {
				st.Hits++
			}
			slotNext[base+int(w)] = nextUse[i]
			continue
		}
		if ev.Op == OpLookup {
			continue // lookup miss: no fill
		}
		// Fill: invalid way inside the mask, then any invalid way, then
		// Belady's victim inside the mask.
		mask := masks[ev.Core]
		way := -1
		if inv := mask &^ validMask[ev.Set]; inv != 0 {
			way = inv.Nth(0)
		} else if inv := full &^ validMask[ev.Set]; inv != 0 {
			way = inv.Nth(0)
		} else {
			farthest := int64(-1)
			for m := mask; m != 0; {
				w := m.Nth(0)
				m = m.Without(w)
				if nxt := slotNext[base+w]; nxt > farthest {
					farthest = nxt
					way = w
				}
			}
			delete(resident, setLine{set: ev.Set, line: slotLine[base+way]})
		}
		slotLine[base+way] = ev.Line
		slotNext[base+way] = nextUse[i]
		validMask[ev.Set] = validMask[ev.Set].With(way)
		resident[k] = int32(way)
	}
	return stats, nil
}
