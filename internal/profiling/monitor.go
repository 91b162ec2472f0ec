package profiling

import (
	"fmt"
	"math"

	"repro/pkg/plru"
)

// Config describes one per-thread profiling monitor. The geometry mirrors
// the L2 it profiles; SampleRate applies the paper's set sampling (an L2
// set s is profiled iff s % SampleRate == 0).
type Config struct {
	L2Sets     int       // number of sets in the profiled L2
	Ways       int       // L2/ATD associativity
	LineBytes  int       // line size (for address decomposition)
	SampleRate int       // 1-in-N set sampling; 1 = full ATD; paper uses 32
	Kind       plru.Kind // LRU, NRU or BT profiling logic
	NRUScale   float64   // S for the NRU estimator (paper: 1.0/0.75/0.5)
	Seed       uint64
}

// Validate checks the monitor configuration.
func (c Config) Validate() error {
	if c.L2Sets <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("profiling: geometry must be positive")
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("profiling: line size %d not a power of two", c.LineBytes)
	}
	if c.SampleRate <= 0 {
		return fmt.Errorf("profiling: sample rate must be positive")
	}
	switch c.Kind {
	case plru.LRU, plru.NRU, plru.BT:
	default:
		return fmt.Errorf("profiling: no profiling logic exists for %v replacement", c.Kind)
	}
	if c.Kind == plru.NRU && (c.NRUScale <= 0 || c.NRUScale > 1) {
		return fmt.Errorf("profiling: NRU scale %v out of (0,1]", c.NRUScale)
	}
	return nil
}

// sampledSets returns how many L2 sets the ATD actually models.
func (c Config) sampledSets() int {
	return (c.L2Sets + c.SampleRate - 1) / c.SampleRate
}

// StorageBits returns the ATD storage in bits for a given tag width:
// per line a tag, a valid bit and the policy's per-line replacement bits
// (log2(A) for LRU, 1 used bit for NRU), plus per-set bits (A−1 tree bits
// for BT). For the paper's setup — 2 MB 16-way L2, 128 B lines, 47 tag
// bits, 1/32 sampling, LRU ATD — this reproduces the quoted 3.25 KB per
// core.
func (c Config) StorageBits(tagBits int) int {
	perLine := tagBits + 1 // tag + valid
	perSet := 0
	switch c.Kind {
	case plru.LRU:
		perLine += log2(c.Ways)
	case plru.NRU:
		perLine++ // used bit
	case plru.BT:
		perSet = c.Ways - 1
	}
	return c.sampledSets() * (c.Ways*perLine + perSet)
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Monitor is one thread's profiling unit: a sampled ATD plus its SDH. It
// observes the thread's L2 access stream (addresses only — the ATD is a
// tag directory) and maintains the (e)SDH the partitioner reads.
type Monitor struct {
	cfg  Config
	sdh  *SDH
	tags []uint64
	val  []bool
	pol  plru.Policy // the ATD's replacement state, of cfg.Kind

	observed uint64 // sampled accesses seen since construction
}

// NewMonitor builds a monitor. It panics on invalid configuration
// (monitors are constructed from validated experiment configs).
func NewMonitor(cfg Config) *Monitor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.sampledSets() * cfg.Ways
	return &Monitor{
		cfg:  cfg,
		sdh:  NewSDH(cfg.Ways),
		tags: make([]uint64, n),
		val:  make([]bool, n),
		pol:  plru.New(cfg.Kind, cfg.sampledSets(), cfg.Ways, 1, cfg.Seed),
	}
}

// SDH returns the live (e)SDH.
func (m *Monitor) SDH() *SDH { return m.sdh }

// Observed returns the number of sampled accesses processed.
func (m *Monitor) Observed() uint64 { return m.observed }

// Halve ages the SDH registers (called at interval boundaries).
func (m *Monitor) Halve() { m.sdh.Halve() }

// Observe processes one L2 access (byte address) by the owning thread.
// Non-sampled sets are ignored, mirroring the hardware where only sampled
// sets exist in the ATD.
func (m *Monitor) Observe(addr uint64) {
	line := addr / uint64(m.cfg.LineBytes)
	l2set := int(line % uint64(m.cfg.L2Sets))
	if l2set%m.cfg.SampleRate != 0 {
		return
	}
	set := l2set / m.cfg.SampleRate
	tag := line / uint64(m.cfg.L2Sets)
	m.observed++

	base := set * m.cfg.Ways
	way := -1
	for w := 0; w < m.cfg.Ways; w++ {
		if m.val[base+w] && m.tags[base+w] == tag {
			way = w
			break
		}
	}

	if way >= 0 {
		m.recordHit(set, way)
		m.pol.Touch(set, way, 0)
		return
	}

	// ATD miss: the thread would miss even with the full cache.
	m.sdh.RecordMiss()
	for w := 0; w < m.cfg.Ways; w++ {
		if !m.val[base+w] {
			way = w
			break
		}
	}
	if way < 0 {
		way = m.pol.Victim(set, 0, plru.Full(m.cfg.Ways))
	}
	m.tags[base+way] = tag
	m.val[base+way] = true
	m.pol.Touch(set, way, 0)
}

// recordHit applies the policy-specific distance estimation for a hit on
// (set, way), before the recency state is updated.
func (m *Monitor) recordHit(set, way int) {
	switch p := m.pol.(type) {
	case *plru.LRUPolicy:
		m.sdh.RecordHit(p.Dist(set, way))
	case *plru.NRUPolicy:
		u := p.UsedCount(set)
		if p.Used(set, way) {
			// Distance in [1, U]; assume ceil(S × U).
			est := int(math.Ceil(m.cfg.NRUScale * float64(u)))
			if est < 1 {
				est = 1
			}
			m.sdh.RecordHit(est)
		}
	case *plru.BTPolicy:
		m.sdh.RecordHit(p.EstStackPos(set, way))
	}
}
