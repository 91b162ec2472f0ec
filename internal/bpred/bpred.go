// Package bpred implements the paper's branch predictor setup (Table II):
// a tournament predictor that selects the best of a bimodal and a gshare
// component via a chooser table, plus a small branch target buffer. The
// core timing model charges a misprediction penalty when the tournament
// predicts the wrong direction and a smaller penalty on taken branches
// that miss in the BTB (the paper's "min penalty - 3 cycles").
package bpred

import (
	"repro/internal/cache"
	"repro/pkg/plru"
)

// Config sizes the predictor tables.
type Config struct {
	BimodalBits int // log2 entries of the bimodal table
	GshareBits  int // log2 entries of the gshare table (and history length)
	ChooserBits int // log2 entries of the chooser table
	BTBBytes    int // BTB capacity (paper: 1KB, 4-way)
	BTBWays     int
}

// DefaultConfig mirrors the paper's modest front end.
func DefaultConfig() Config {
	return Config{
		BimodalBits: 12,
		GshareBits:  12,
		ChooserBits: 12,
		BTBBytes:    1024,
		BTBWays:     4,
	}
}

// Predictor is a bimodal+gshare tournament predictor with a BTB.
type Predictor struct {
	cfg     Config
	bimodal []uint8 // 2-bit saturating counters
	gshare  []uint8
	chooser []uint8 // 2-bit: >=2 selects gshare
	history uint64
	btb     *cache.Cache

	// statistics
	branches    uint64
	mispredicts uint64
	btbMisses   uint64
}

// New builds a predictor; counters start weakly taken / no preference.
func New(cfg Config) *Predictor {
	p := &Predictor{
		cfg:     cfg,
		bimodal: make([]uint8, 1<<uint(cfg.BimodalBits)),
		gshare:  make([]uint8, 1<<uint(cfg.GshareBits)),
		chooser: make([]uint8, 1<<uint(cfg.ChooserBits)),
		btb: cache.New(cache.Config{
			Name:      "BTB",
			SizeBytes: cfg.BTBBytes,
			LineBytes: 4, // one target entry per 4-byte slot
			Ways:      cfg.BTBWays,
			Policy:    plru.LRU,
			Cores:     1,
		}),
	}
	for i := range p.bimodal {
		p.bimodal[i] = 2
	}
	for i := range p.gshare {
		p.gshare[i] = 2
	}
	for i := range p.chooser {
		p.chooser[i] = 1
	}
	return p
}

// Outcome describes one predicted branch.
type Outcome struct {
	DirectionCorrect bool // tournament direction prediction was right
	BTBHit           bool // target was present in the BTB
}

// Lookup predicts the branch at pc, updates all tables with the actual
// outcome `taken`, and reports what happened — the single-call interface
// the core model uses.
func (p *Predictor) Lookup(pc uint64, taken bool) Outcome {
	p.branches++
	bi := (pc >> 2) & uint64(len(p.bimodal)-1)
	gi := ((pc >> 2) ^ p.history) & uint64(len(p.gshare)-1)
	ci := (pc >> 2) & uint64(len(p.chooser)-1)

	bPred := p.bimodal[bi] >= 2
	gPred := p.gshare[gi] >= 2
	var pred bool
	if p.chooser[ci] >= 2 {
		pred = gPred
	} else {
		pred = bPred
	}

	// Update chooser toward whichever component was right (only when they
	// disagree).
	if bPred != gPred {
		if gPred == taken {
			p.chooser[ci] = satInc(p.chooser[ci])
		} else {
			p.chooser[ci] = satDec(p.chooser[ci])
		}
	}
	if taken {
		p.bimodal[bi] = satInc(p.bimodal[bi])
		p.gshare[gi] = satInc(p.gshare[gi])
	} else {
		p.bimodal[bi] = satDec(p.bimodal[bi])
		p.gshare[gi] = satDec(p.gshare[gi])
	}
	p.history = p.history<<1 | b2u(taken)

	out := Outcome{DirectionCorrect: pred == taken}
	if !out.DirectionCorrect {
		p.mispredicts++
	}
	// BTB: taken branches need a target; model presence via a small
	// tag array keyed by pc.
	if taken {
		hit := p.btb.Access(0, pc).Hit
		out.BTBHit = hit
		if !hit {
			p.btbMisses++
		}
	} else {
		out.BTBHit = true
	}
	return out
}

// Branches returns the number of branches predicted.
func (p *Predictor) Branches() uint64 { return p.branches }

// Mispredicts returns the number of direction mispredictions.
func (p *Predictor) Mispredicts() uint64 { return p.mispredicts }

// BTBMisses returns the number of taken branches missing in the BTB.
func (p *Predictor) BTBMisses() uint64 { return p.btbMisses }

// Accuracy returns the direction prediction accuracy (1.0 when no
// branches were seen).
func (p *Predictor) Accuracy() float64 {
	if p.branches == 0 {
		return 1
	}
	return 1 - float64(p.mispredicts)/float64(p.branches)
}

func satInc(v uint8) uint8 {
	if v < 3 {
		return v + 1
	}
	return v
}

func satDec(v uint8) uint8 {
	if v > 0 {
		return v - 1
	}
	return v
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
