// Package trace generates the synthetic per-benchmark instruction and
// memory-access streams that stand in for the paper's SPEC CPU 2000
// SimPoint traces (internal/workload says what each one stands in for).
//
// Each benchmark is described by a Profile: a base IPC (standing in for
// width/window effects), a memory-access ratio, a branch ratio with a
// takenness-bias parameter, a memory-level-parallelism overlap factor, and
// a sequence of Phases. A phase draws memory accesses from a four-way
// mixture — a hot working set, a second-level working set, a sequential
// streaming buffer, and cold (never-reused) lines — whose weights and
// sizes shape the benchmark's miss-rate-versus-ways curve, which is the
// property cache partitioning actually responds to.
//
// Generators are infinite and fully deterministic from (profile, seed).
package trace

import (
	"fmt"

	"repro/internal/xrand"
)

// EventKind distinguishes generator events.
type EventKind uint8

// Event kinds.
const (
	// Mem is a data memory access.
	Mem EventKind = iota
	// Branch is a conditional branch with an outcome.
	Branch
)

// Event is one unit of a core's dynamic instruction stream: `Insts`
// instructions are consumed, the last of which is the memory access or
// branch the event describes.
type Event struct {
	Insts uint32    // instructions consumed, >= 1
	Kind  EventKind // Mem or Branch
	Addr  uint64    // byte address (Mem) or branch PC (Branch)
	Taken bool      // branch outcome (Branch only)
	Write bool      // the access is a store (Mem only)
}

// Phase describes one memory-behavior phase of a benchmark.
type Phase struct {
	Insts uint64 // phase length in instructions

	HotLines  int     // primary working-set size in cache lines
	HotWeight float64 // fraction of accesses to the hot set
	// HotCyclic in [0,1]: fraction of hot-set draws that follow a cyclic
	// sweep over the hot set instead of a uniform draw. Loop-style reuse
	// is where true LRU genuinely beats pseudo-LRU (a loop that fits is
	// all-hits under LRU; random-ish victim selection keeps breaking it),
	// and where partitioning shows cliff behavior.
	HotCyclic float64

	MidLines  int     // secondary working-set size in lines
	MidWeight float64 // fraction of accesses to the secondary set

	StreamLines  int     // streaming buffer length in lines
	StreamWeight float64 // fraction of sequential streaming accesses

	ColdWeight float64 // fraction of never-reused (compulsory-miss) accesses
}

func (p Phase) weightSum() float64 {
	return p.HotWeight + p.MidWeight + p.StreamWeight + p.ColdWeight
}

// Profile describes a synthetic benchmark.
type Profile struct {
	Name        string
	BaseIPC     float64 // IPC of the non-memory, non-branch instruction mix
	MemRatio    float64 // fraction of instructions that access memory
	BranchRatio float64 // fraction of instructions that are branches
	// BranchBias in [0.5, 1]: each synthetic static branch gets a
	// takenness probability of BranchBias or 1-BranchBias, so higher
	// values are easier for the predictor.
	BranchBias float64
	// MLPOverlap in [0, 1): fraction of L2/memory latency hidden by
	// out-of-order overlap and memory-level parallelism.
	MLPOverlap float64
	// WriteRatio in [0, 1): fraction of memory accesses that are stores.
	// Stores dirty cache lines; dirty evictions cost writeback traffic
	// (and memory energy) but no core stall (a store buffer is assumed).
	WriteRatio float64
	// L1Locality in [0, 1): probability that a memory access re-uses one
	// of the ~256 most recently touched lines instead of drawing from the
	// phase mixture. This models the short-term temporal locality that
	// makes real programs hit in their private L1s; the L1-miss residue —
	// the stream the shared L2 and the ATDs actually see — is shaped by
	// the phase mixture.
	L1Locality float64
	Phases     []Phase
}

// Validate checks the profile.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("trace: profile needs a name")
	}
	if p.BaseIPC <= 0 {
		return fmt.Errorf("trace: %s: BaseIPC must be positive", p.Name)
	}
	if p.MemRatio <= 0 || p.MemRatio >= 1 {
		return fmt.Errorf("trace: %s: MemRatio out of (0,1)", p.Name)
	}
	if p.BranchRatio < 0 || p.MemRatio+p.BranchRatio >= 1 {
		return fmt.Errorf("trace: %s: MemRatio+BranchRatio out of range", p.Name)
	}
	if p.BranchBias < 0.5 || p.BranchBias > 1 {
		return fmt.Errorf("trace: %s: BranchBias out of [0.5,1]", p.Name)
	}
	if p.MLPOverlap < 0 || p.MLPOverlap >= 1 {
		return fmt.Errorf("trace: %s: MLPOverlap out of [0,1)", p.Name)
	}
	if p.L1Locality < 0 || p.L1Locality >= 1 {
		return fmt.Errorf("trace: %s: L1Locality out of [0,1)", p.Name)
	}
	if p.WriteRatio < 0 || p.WriteRatio >= 1 {
		return fmt.Errorf("trace: %s: WriteRatio out of [0,1)", p.Name)
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("trace: %s: needs at least one phase", p.Name)
	}
	for i, ph := range p.Phases {
		if ph.Insts == 0 {
			return fmt.Errorf("trace: %s: phase %d has zero length", p.Name, i)
		}
		if ph.weightSum() <= 0 {
			return fmt.Errorf("trace: %s: phase %d has zero weights", p.Name, i)
		}
		if ph.HotWeight > 0 && ph.HotLines <= 0 {
			return fmt.Errorf("trace: %s: phase %d hot set empty", p.Name, i)
		}
		if ph.HotCyclic < 0 || ph.HotCyclic > 1 {
			return fmt.Errorf("trace: %s: phase %d HotCyclic out of [0,1]", p.Name, i)
		}
		if ph.MidWeight > 0 && ph.MidLines <= 0 {
			return fmt.Errorf("trace: %s: phase %d mid set empty", p.Name, i)
		}
		if ph.StreamWeight > 0 && ph.StreamLines <= 0 {
			return fmt.Errorf("trace: %s: phase %d stream empty", p.Name, i)
		}
	}
	return nil
}

// Region bases, in lines, within a thread's private address space. The
// spacing (2^24 lines) is far larger than any working set we generate.
const (
	hotBase    = 0
	midBase    = 1 << 24
	streamBase = 2 << 24
	coldBase   = 3 << 24
	// threadSpacing separates thread address spaces (in bytes) so threads
	// share cache sets but never share tags.
	threadSpacing = 1 << 42
)

// numBranchPCs is the number of synthetic static branches per benchmark.
const numBranchPCs = 128

// recentLines sizes the short-term locality buffer (96 lines = 12 KB of
// 128 B lines, comfortably inside a 32 KB 2-way L1).
const recentLines = 96

// RecentBias is the per-step probability parameter of the geometric
// recency-rank distribution used for locality draws: most re-uses target
// the last few dozen lines, as in real program locality, which keeps them
// L1-resident.
const RecentBias = 1.0 / 24

// recentRank samples that distribution; it is immutable after init, so
// every generator shares it.
var recentRank = xrand.NewGeometric(RecentBias)

// Generator produces the infinite event stream of one thread.
type Generator struct {
	prof      Profile
	lineBytes uint64
	base      uint64 // thread address base (bytes)
	rng       *xrand.RNG
	pEvent    float64          // MemRatio+BranchRatio: per-instruction event probability
	gap       *xrand.Geometric // instructions skipped before the next event

	phaseIdx  int
	phaseLeft int64
	tables    []*xrand.CumTable // per phase: hot/mid/stream/cold weights

	hotPos    uint64
	streamPos uint64
	coldPos   uint64

	recent     [recentLines]uint64 // ring of recently touched lines
	recentLen  int
	recentNext int

	branchPCs  []uint64
	branchBias []float64

	insts uint64 // instructions generated so far
}

// NewGenerator builds a generator for the profile. threadID selects the
// private address space; lineBytes must match the simulated caches so
// streaming advances one line per access.
func NewGenerator(p Profile, threadID int, seed uint64, lineBytes int) *Generator {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		panic("trace: lineBytes must be a positive power of two")
	}
	g := &Generator{
		prof:      p,
		lineBytes: uint64(lineBytes),
		base:      uint64(threadID) * threadSpacing,
		rng:       xrand.New(seed),
		pEvent:    p.MemRatio + p.BranchRatio,
		phaseLeft: int64(p.Phases[0].Insts),
	}
	g.gap = xrand.NewGeometric(g.pEvent)
	for _, ph := range p.Phases {
		g.tables = append(g.tables, xrand.NewCumTable([]float64{
			ph.HotWeight, ph.MidWeight, ph.StreamWeight, ph.ColdWeight,
		}))
	}
	// Synthetic static branches with per-branch bias.
	brng := xrand.New(seed ^ 0xb4a2c3d4e5f60718)
	g.branchPCs = make([]uint64, numBranchPCs)
	g.branchBias = make([]float64, numBranchPCs)
	for i := range g.branchPCs {
		g.branchPCs[i] = g.base + uint64(i)*4 + 0x100000
		if brng.Bool(0.5) {
			g.branchBias[i] = p.BranchBias
		} else {
			g.branchBias[i] = 1 - p.BranchBias
		}
	}
	return g
}

// Profile returns the generating profile.
func (g *Generator) Profile() Profile { return g.prof }

// Insts returns the number of instructions generated so far.
func (g *Generator) Insts() uint64 { return g.insts }

// Next returns the next event. The stream is infinite.
func (g *Generator) Next() Event {
	// Gap to the next event instruction: geometric with success
	// probability MemRatio+BranchRatio per instruction.
	insts := uint32(g.gap.Draw(g.rng)) + 1

	g.insts += uint64(insts)
	g.phaseLeft -= int64(insts)
	if g.phaseLeft <= 0 {
		g.phaseIdx = (g.phaseIdx + 1) % len(g.prof.Phases)
		g.phaseLeft = int64(g.prof.Phases[g.phaseIdx].Insts)
	}

	if g.rng.Float64()*g.pEvent < g.prof.MemRatio {
		return Event{
			Insts: insts,
			Kind:  Mem,
			Addr:  g.nextAddr(),
			Write: g.rng.Bool(g.prof.WriteRatio),
		}
	}
	i := g.rng.Intn(numBranchPCs)
	return Event{
		Insts: insts,
		Kind:  Branch,
		Addr:  g.branchPCs[i],
		Taken: g.rng.Bool(g.branchBias[i]),
	}
}

// nextAddr draws a memory address: with probability L1Locality a recently
// touched line (short-term reuse that the private L1 will absorb),
// otherwise a fresh draw from the current phase's mixture.
func (g *Generator) nextAddr() uint64 {
	if g.recentLen > 0 && g.rng.Bool(g.prof.L1Locality) {
		// Rank 0 is the most recently inserted line.
		rank := recentRank.Draw(g.rng)
		if rank >= g.recentLen { // rarely: the mean rank is 23 of 96
			rank %= g.recentLen
		}
		idx := (g.recentNext - 1 - rank + 2*recentLines) % recentLines
		if idx >= g.recentLen {
			idx = g.recentLen - 1
		}
		return g.base + g.recent[idx]*g.lineBytes
	}
	ph := &g.prof.Phases[g.phaseIdx]
	var line uint64
	switch g.tables[g.phaseIdx].Sample(g.rng) {
	case 0: // hot working set: cyclic sweep or uniform draw
		if ph.HotCyclic > 0 && g.rng.Bool(ph.HotCyclic) {
			line = hotBase + g.hotPos%uint64(ph.HotLines)
			g.hotPos++
		} else {
			line = hotBase + uint64(g.rng.Intn(ph.HotLines))
		}
	case 1: // secondary working set
		line = midBase + uint64(g.rng.Intn(ph.MidLines))
	case 2: // sequential streaming
		line = streamBase + g.streamPos%uint64(ph.StreamLines)
		g.streamPos++
	default: // cold: fresh line every time
		line = coldBase + g.coldPos
		g.coldPos++
	}
	g.recent[g.recentNext] = line
	g.recentNext = (g.recentNext + 1) % recentLines
	if g.recentLen < recentLines {
		g.recentLen++
	}
	return g.base + line*g.lineBytes
}
