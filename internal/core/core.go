// Package core assembles the paper's complete dynamic cache partitioning
// system: per-thread profiling monitors (ATD + SDH/eSDH), MinMisses
// partition selection (over buddy shares under up/down enforcement)
// invoked at fixed cycle intervals, and the enforcement logic that constrains victim selection in
// the shared L2.
//
// Configurations follow the paper's acronyms (§V-B):
//
//	C-L      per-set owner counters + LRU (the paper's baseline)
//	M-L      global replacement masks + LRU
//	M-1.0N   masks + NRU with eSDH scaling factor 1.0
//	M-0.75N  masks + NRU with scaling factor 0.75
//	M-0.5N   masks + NRU with scaling factor 0.5
//	M-BT     up/down force vectors + BT
//
// A System implements cache.VictimSelector, so attaching it to a shared L2
// is: sys := core.NewSystem(cfg, l2); l2.SetVictimSelector(sys).
package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cache"
	"repro/internal/profiling"
	"repro/pkg/cpapart"
	"repro/pkg/plru"
)

// Enforcement identifies how partitions are enforced at eviction time.
type Enforcement int

// Enforcement mechanisms from the paper.
const (
	// EnforceNone disables partitioning (profiling may still run).
	EnforceNone Enforcement = iota
	// EnforceMasks uses per-core global replacement masks (§II-B.2).
	EnforceMasks
	// EnforceCounters uses per-set owner counters (§II-B.1, LRU only in
	// the paper; we implement it generically).
	EnforceCounters
	// EnforceUpDown uses the BT per-level force vectors (§III-B, Fig. 5).
	EnforceUpDown
)

// String names the enforcement mechanism.
func (e Enforcement) String() string {
	switch e {
	case EnforceNone:
		return "none"
	case EnforceMasks:
		return "masks"
	case EnforceCounters:
		return "counters"
	case EnforceUpDown:
		return "updown"
	default:
		return fmt.Sprintf("Enforcement(%d)", int(e))
	}
}

// Config describes one CPA configuration.
type Config struct {
	Acronym     string      // display name, e.g. "M-0.75N"
	Enforcement Enforcement // how partitions are enforced
	Policy      plru.Kind   // replacement in both L2 and ATDs
	NRUScale    float64     // eSDH scaling factor (NRU only)
	SampleRate  int         // ATD set sampling (paper: 32)
	Interval    uint64      // repartition interval in cycles (paper: 1M)
}

// Partitioned reports whether the configuration partitions the cache.
func (c Config) Partitioned() bool { return c.Enforcement != EnforceNone }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Enforcement == EnforceUpDown && c.Policy != plru.BT {
		return fmt.Errorf("core: up/down enforcement requires BT, got %v", c.Policy)
	}
	if c.Policy == plru.NRU && c.Partitioned() && (c.NRUScale <= 0 || c.NRUScale > 1) {
		return fmt.Errorf("core: NRU scale %v out of (0,1]", c.NRUScale)
	}
	if c.Partitioned() {
		if c.SampleRate <= 0 {
			return fmt.Errorf("core: sample rate must be positive")
		}
		if c.Interval == 0 {
			return fmt.Errorf("core: repartition interval must be positive")
		}
	}
	return nil
}

// ParseAcronym builds a Config from a paper acronym. Interval and
// SampleRate receive the paper defaults (1M cycles, 1/32) and can be
// adjusted afterwards.
func ParseAcronym(s string) (Config, error) {
	cfg := Config{
		Acronym:    s,
		SampleRate: 32,
		Interval:   1_000_000,
	}
	parts := strings.SplitN(s, "-", 2)
	if len(parts) != 2 {
		return Config{}, fmt.Errorf("core: acronym %q must look like C-L or M-0.75N", s)
	}
	switch parts[0] {
	case "C":
		cfg.Enforcement = EnforceCounters
	case "M":
		cfg.Enforcement = EnforceMasks
	default:
		return Config{}, fmt.Errorf("core: unknown enforcement prefix %q", parts[0])
	}
	rest := parts[1]
	switch {
	case rest == "L":
		cfg.Policy = plru.LRU
	case rest == "BT":
		cfg.Policy = plru.BT
		if cfg.Enforcement == EnforceMasks {
			// The paper's M-BT uses the up/down vectors as its masks
			// mechanism; keep the M- prefix but enforce via the tree.
			cfg.Enforcement = EnforceUpDown
		}
	case strings.HasSuffix(rest, "N"):
		cfg.Policy = plru.NRU
		scale, err := strconv.ParseFloat(strings.TrimSuffix(rest, "N"), 64)
		if err != nil {
			return Config{}, fmt.Errorf("core: bad NRU scale in %q: %v", s, err)
		}
		cfg.NRUScale = scale
	default:
		return Config{}, fmt.Errorf("core: unknown policy suffix %q", rest)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// StandardConfigs returns the six configurations of Figure 7 in paper
// order.
func StandardConfigs() []Config {
	var out []Config
	for _, a := range []string{"C-L", "M-L", "M-1.0N", "M-0.75N", "M-0.5N", "M-BT"} {
		cfg, err := ParseAcronym(a)
		if err != nil {
			panic(err)
		}
		out = append(out, cfg)
	}
	return out
}

// System is a live CPA instance attached to a shared L2.
type System struct {
	cfg      Config
	l2       *cache.Cache
	cores    int
	ways     int
	monitors []*profiling.Monitor

	alloc  cpapart.Allocation
	masks  []plru.WayMask
	blocks []cpapart.Block
	ups    [][]bool
	downs  [][]bool

	nextBoundary uint64
	repartitions uint64

	// OnRepartition, when non-nil, observes every repartition decision
	// (used by cpasim -partitions and tests).
	OnRepartition func(cycle uint64, alloc cpapart.Allocation)
}

// NewSystem builds the CPA for the given shared L2 and installs itself as
// the cache's victim selector. The L2's policy kind must match the
// configuration.
func NewSystem(cfg Config, l2 *cache.Cache) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lc := l2.Config()
	if cfg.Partitioned() && lc.Policy != cfg.Policy {
		return nil, fmt.Errorf("core: config policy %v != L2 policy %v", cfg.Policy, lc.Policy)
	}
	s := &System{
		cfg:   cfg,
		l2:    l2,
		cores: lc.Cores,
		ways:  lc.Ways,
	}
	if !cfg.Partitioned() {
		return s, nil
	}
	if lc.Cores > lc.Ways {
		return nil, fmt.Errorf("core: %d cores cannot each own a way of a %d-way cache", lc.Cores, lc.Ways)
	}
	for i := 0; i < lc.Cores; i++ {
		s.monitors = append(s.monitors, profiling.NewMonitor(profiling.Config{
			L2Sets:     lc.Sets(),
			Ways:       lc.Ways,
			LineBytes:  lc.LineBytes,
			SampleRate: cfg.SampleRate,
			Kind:       cfg.Policy,
			NRUScale:   cfg.NRUScale,
			Seed:       lc.Seed + uint64(i) + 1,
		}))
	}
	s.install(s.initialAllocation())
	s.nextBoundary = cfg.Interval
	l2.SetVictimSelector(s)
	return s, nil
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Allocation returns the current ways-per-core allocation (nil when not
// partitioned).
func (s *System) Allocation() cpapart.Allocation {
	return append(cpapart.Allocation(nil), s.alloc...)
}

// Masks returns the current per-core way masks (nil when not partitioned).
func (s *System) Masks() []plru.WayMask {
	return append([]plru.WayMask(nil), s.masks...)
}

// Repartitions returns how many interval boundaries have been processed.
func (s *System) Repartitions() uint64 { return s.repartitions }

// Monitors exposes the per-thread profiling monitors (for power
// accounting and the examples).
func (s *System) Monitors() []*profiling.Monitor { return s.monitors }

// OnAccess feeds one L2 access (by `core` to `addr`) into the core's
// profiling monitor. Call it for every L2 access, hit or miss, before or
// after the L2 lookup (the ATD is parallel hardware; ordering within the
// access is immaterial as long as it is consistent).
func (s *System) OnAccess(core int, addr uint64) {
	if s.monitors == nil {
		return
	}
	s.monitors[core].Observe(addr)
}

// NextBoundary returns the cycle from which Tick repartitions next: Tick
// does nothing for a smaller cycle, so events that start below it can run
// in any order without the CPA seeing a difference. It is meaningful only
// when the configuration is Partitioned (otherwise Tick never fires).
func (s *System) NextBoundary() uint64 { return s.nextBoundary }

// Tick advances the CPA's notion of time. When `cycle` crosses the next
// interval boundary the system recomputes the partition from the current
// (e)SDHs, installs the new enforcement state and halves the SDH
// registers.
func (s *System) Tick(cycle uint64) {
	// The boundary test goes first: it fails on nearly every call, and
	// Partitioned copies the whole Config to read one field.
	if cycle < s.nextBoundary || !s.cfg.Partitioned() {
		return
	}
	for cycle >= s.nextBoundary {
		s.nextBoundary += s.cfg.Interval
	}
	s.Repartition(cycle)
}

// Repartition forces an immediate repartition (also used at interval
// boundaries by Tick).
func (s *System) Repartition(cycle uint64) {
	if !s.cfg.Partitioned() {
		return
	}
	curves := s.missCurves()
	if s.cfg.Enforcement == EnforceUpDown {
		s.install(cpapart.BuddyMinMisses(curves, s.ways))
	} else {
		s.install(cpapart.MinMisses{}.Allocate(curves, s.ways))
	}
	for _, m := range s.monitors {
		m.Halve()
	}
	s.repartitions++
	if s.OnRepartition != nil {
		s.OnRepartition(cycle, s.Allocation())
	}
}

// initialAllocation is the partition in force until the first interval
// elapses: the equal split, or — when up/down enforcement cannot lay the
// equal split out as aligned power-of-two blocks (3, 5, 6 or 7 cores) —
// the buddy allocation MinMisses picks over the still-empty profiles.
func (s *System) initialAllocation() cpapart.Allocation {
	curves := s.missCurves()
	alloc := cpapart.Fair{}.Allocate(curves, s.ways)
	if s.cfg.Enforcement == EnforceUpDown {
		if _, err := cpapart.BuddyLayout(alloc, s.ways); err != nil {
			return cpapart.BuddyMinMisses(curves, s.ways)
		}
	}
	return alloc
}

// missCurves snapshots each thread's predicted miss curve.
func (s *System) missCurves() [][]uint64 {
	curves := make([][]uint64, s.cores)
	for i := range curves {
		curves[i] = s.monitors[i].SDH().MissCurve()
	}
	return curves
}

// install applies an allocation to the enforcement state.
func (s *System) install(alloc cpapart.Allocation) {
	s.alloc = alloc
	switch s.cfg.Enforcement {
	case EnforceMasks:
		s.masks = cpapart.Masks(alloc, s.ways)
	case EnforceCounters:
		// Counters need only the allocation; masks are derived per set
		// from owner bits at eviction time.
		s.masks = nil
	case EnforceUpDown:
		blocks, err := cpapart.BuddyLayout(alloc, s.ways)
		if err != nil {
			panic(fmt.Sprintf("core: buddy layout failed for %v: %v", alloc, err))
		}
		s.blocks = blocks
		s.ups = make([][]bool, len(blocks))
		s.downs = make([][]bool, len(blocks))
		s.masks = make([]plru.WayMask, len(blocks))
		for i, b := range blocks {
			s.ups[i], s.downs[i] = cpapart.ForceVectors(b, s.ways)
			s.masks[i] = b.Mask()
		}
	}
	// Scope NRU's used-bit reset rule to the new cpapart.
	if s.cfg.Policy == plru.NRU && s.masks != nil {
		s.l2.Policy().SetPartition(s.masks)
	}
}

// SelectVictim implements cache.VictimSelector with the configured
// enforcement mechanism. It is called by the L2 only when the set is full.
func (s *System) SelectVictim(c *cache.Cache, set, core int) int {
	pol := c.Policy()
	full := plru.Full(s.ways)
	switch s.cfg.Enforcement {
	case EnforceMasks:
		return pol.Victim(set, core, s.masks[core])
	case EnforceCounters:
		owned := c.OwnedMask(set, core)
		var allowed plru.WayMask
		if owned.Count() < s.alloc[core] {
			// Under quota: take a line from another thread (the paper's
			// "LRU line among the lines that do not belong to the
			// thread").
			allowed = full &^ owned
		} else {
			// At or over quota: replace within the thread's own lines.
			allowed = owned
		}
		if allowed == 0 {
			allowed = full
		}
		return pol.Victim(set, core, allowed)
	case EnforceUpDown:
		bt := pol.(*plru.BTPolicy)
		return bt.VictimForced(set, s.ups[core], s.downs[core])
	default:
		return pol.Victim(set, core, full)
	}
}
