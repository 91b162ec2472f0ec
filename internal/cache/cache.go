// Package cache models a set-associative cache with pluggable replacement
// and victim selection. One Cache type serves as both the private L1 data
// caches and the shared L2 of the paper's CMP: the L2 additionally tracks
// the owner core of every line (the paper's "owner core bits"), which the
// per-set-counters enforcement scheme consults.
//
// Victim selection on a miss is delegated to a VictimSelector so the
// partitioning enforcement logics (global replacement masks, per-set owner
// counters, BT up/down vectors — implemented in internal/core) can plug in
// without the cache knowing about partitions.
package cache

import (
	"fmt"

	"repro/pkg/plru"
)

// Config describes a cache geometry and its replacement policy.
type Config struct {
	Name      string    // label used in stats output
	SizeBytes int       // total capacity
	LineBytes int       // line (block) size
	Ways      int       // associativity
	Policy    plru.Kind // replacement policy family
	Cores     int       // number of sharer cores (1 for private)
	Seed      uint64    // seed for randomized policies
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %q: size, line and ways must be positive", c.Name)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %q: line size %d not a power of two", c.Name, c.LineBytes)
	}
	if c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache %q: size %d not divisible by line*ways", c.Name, c.SizeBytes)
	}
	if c.Cores <= 0 {
		return fmt.Errorf("cache %q: cores must be positive", c.Name)
	}
	return nil
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Ways) }

// Result reports the outcome of a single cache access.
type Result struct {
	Hit          bool
	Way          int    // way that now holds the line
	Evicted      bool   // a valid line was displaced
	EvictedOwner int    // owner core of the displaced line (when Evicted)
	Writeback    bool   // the displaced line was dirty
	EvictedAddr  uint64 // line-aligned address of the displaced line (when Evicted)
}

// VictimSelector chooses which way a missing core may replace in a set.
// Implementations receive the cache so they can inspect owner state.
type VictimSelector interface {
	SelectVictim(c *Cache, set, core int) int
}

// defaultSelector implements unpartitioned replacement: any way is fair
// game and the policy picks.
type defaultSelector struct{}

func (defaultSelector) SelectVictim(c *Cache, set, core int) int {
	return c.Policy().Victim(set, core, plru.Full(c.cfg.Ways))
}

// Stats aggregates per-core access counts.
type Stats struct {
	Accesses []uint64 // per core
	Hits     []uint64
	Misses   []uint64
	// EvictedLines[i] counts valid lines owned by core i that were
	// displaced (by any core); the difference between this and Misses
	// exposes inter-thread interference.
	EvictedLines []uint64
	// Writebacks[i] counts dirty lines owned by core i that were
	// displaced and had to be written downstream.
	Writebacks []uint64
}

func newStats(cores int) Stats {
	return Stats{
		Accesses:     make([]uint64, cores),
		Hits:         make([]uint64, cores),
		Misses:       make([]uint64, cores),
		EvictedLines: make([]uint64, cores),
		Writebacks:   make([]uint64, cores),
	}
}

// TotalAccesses sums accesses over cores.
func (s *Stats) TotalAccesses() uint64 { return sum(s.Accesses) }

// TotalHits sums hits over cores.
func (s *Stats) TotalHits() uint64 { return sum(s.Hits) }

// TotalMisses sums misses over cores.
func (s *Stats) TotalMisses() uint64 { return sum(s.Misses) }

// TotalWritebacks sums writebacks over cores.
func (s *Stats) TotalWritebacks() uint64 { return sum(s.Writebacks) }

func sum(xs []uint64) uint64 {
	var t uint64
	for _, x := range xs {
		t += x
	}
	return t
}

// Cache is a set-associative cache instance.
type Cache struct {
	cfg       Config
	sets      int
	lineShift uint
	// A power-of-two set count (every paper geometry) splits a line
	// number with a mask and a shift; setMask is 0 otherwise.
	setMask  uint64
	setShift uint

	tags  []uint64 // sets*ways
	valid []bool
	dirty []bool
	owner []int16 // core that filled the line

	pol      plru.Policy
	selector VictimSelector

	stats Stats
}

// New constructs a cache from the configuration. It panics on an invalid
// configuration: cache geometries are static experiment inputs, so a bad
// one is always a programming error.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	c := &Cache{
		cfg:       cfg,
		sets:      sets,
		lineShift: log2(cfg.LineBytes),
		tags:      make([]uint64, sets*cfg.Ways),
		valid:     make([]bool, sets*cfg.Ways),
		dirty:     make([]bool, sets*cfg.Ways),
		owner:     make([]int16, sets*cfg.Ways),
		pol:       plru.New(cfg.Policy, sets, cfg.Ways, cfg.Cores, cfg.Seed),
		selector:  defaultSelector{},
		stats:     newStats(cfg.Cores),
	}
	if sets&(sets-1) == 0 {
		c.setMask, c.setShift = uint64(sets-1), log2(sets)
	}
	return c
}

func log2(v int) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.sets }

// Policy exposes the replacement policy (the CPA wiring needs the concrete
// policy for profiling and enforcement).
func (c *Cache) Policy() plru.Policy { return c.pol }

// SetVictimSelector installs the victim selection strategy; nil restores
// the unpartitioned default.
func (c *Cache) SetVictimSelector(s VictimSelector) {
	if s == nil {
		c.selector = defaultSelector{}
		return
	}
	c.selector = s
}

// Stats returns a pointer to the live statistics.
func (c *Cache) Stats() *Stats { return &c.stats }

// ResetStats zeroes the statistics without disturbing cache contents.
func (c *Cache) ResetStats() { c.stats = newStats(c.cfg.Cores) }

// Index splits a byte address into (set, tag).
func (c *Cache) Index(addr uint64) (set int, tag uint64) {
	line := addr >> c.lineShift
	if c.setMask != 0 {
		return int(line & c.setMask), line >> c.setShift
	}
	return int(line % uint64(c.sets)), line / uint64(c.sets)
}

// Access performs a read access by `core` to byte address `addr`.
func (c *Cache) Access(core int, addr uint64) Result {
	return c.AccessRW(core, addr, false)
}

// AccessRW performs a cache access, marking the line dirty when `write`
// is set, and reports any dirty eviction (writeback) it caused.
func (c *Cache) AccessRW(core int, addr uint64, write bool) Result {
	if core < 0 || core >= c.cfg.Cores {
		panic(fmt.Sprintf("cache %q: core %d out of range", c.cfg.Name, core))
	}
	set, tag := c.Index(addr)
	base := set * c.cfg.Ways
	c.stats.Accesses[core]++

	// Hit path: a thread may hit in any way regardless of partitions.
	for w := 0; w < c.cfg.Ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			c.stats.Hits[core]++
			c.pol.Touch(set, w, core)
			if write {
				c.dirty[base+w] = true
			}
			return Result{Hit: true, Way: w}
		}
	}

	// Miss path.
	c.stats.Misses[core]++
	res := Result{Hit: false}

	// Fill an invalid way first if one exists.
	way := -1
	for w := 0; w < c.cfg.Ways; w++ {
		if !c.valid[base+w] {
			way = w
			break
		}
	}
	if way < 0 {
		way = c.selector.SelectVictim(c, set, core)
		if way < 0 || way >= c.cfg.Ways {
			panic(fmt.Sprintf("cache %q: selector returned invalid way %d", c.cfg.Name, way))
		}
		res.Evicted = true
		res.EvictedOwner = int(c.owner[base+way])
		c.stats.EvictedLines[res.EvictedOwner]++
		res.EvictedAddr = (c.tags[base+way]*uint64(c.sets) + uint64(set)) << c.lineShift
		if c.dirty[base+way] {
			res.Writeback = true
			c.stats.Writebacks[res.EvictedOwner]++
		}
	}

	c.tags[base+way] = tag
	c.valid[base+way] = true
	c.dirty[base+way] = write
	c.owner[base+way] = int16(core)
	// A miss-fill is a Fill, not a Touch: the adaptive policies (AWRP,
	// ARC) distinguish insertion from reuse, and ARC's ghost history
	// recognizes returning lines by signature. The tag is the line's
	// identity within the set, so folding it to a byte gives a stable
	// signature; for the static policies Fill is defined as Touch and
	// nothing changes.
	c.pol.Fill(set, way, core, uint8(tag^tag>>8^tag>>16^tag>>24))
	res.Way = way
	return res
}

// Contains reports whether addr is present (for tests and examples).
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.Index(addr)
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			return true
		}
	}
	return false
}

// Owner returns the owner core of (set, way), or -1 if the line is
// invalid.
func (c *Cache) Owner(set, way int) int {
	if !c.valid[set*c.cfg.Ways+way] {
		return -1
	}
	return int(c.owner[set*c.cfg.Ways+way])
}

// OwnedMask returns the mask of valid ways in `set` owned by `core`.
func (c *Cache) OwnedMask(set, core int) plru.WayMask {
	base := set * c.cfg.Ways
	var m plru.WayMask
	for w := 0; w < c.cfg.Ways; w++ {
		if c.valid[base+w] && int(c.owner[base+w]) == core {
			m = m.With(w)
		}
	}
	return m
}

// OwnedCount returns the number of valid lines in `set` owned by `core` —
// the paper's per-set counter value (N counters of log2(A) bits per set).
func (c *Cache) OwnedCount(set, core int) int {
	return c.OwnedMask(set, core).Count()
}

// ValidMask returns the mask of valid ways in `set`.
func (c *Cache) ValidMask(set int) plru.WayMask {
	base := set * c.cfg.Ways
	var m plru.WayMask
	for w := 0; w < c.cfg.Ways; w++ {
		if c.valid[base+w] {
			m = m.With(w)
		}
	}
	return m
}
