package plru

import "repro/internal/xrand"

// RandomPolicy evicts a uniformly random allowed way. It keeps no recency
// state. The paper notes NRU's global replacement pointer "guarantees a
// random-like replacement"; this policy is the limit case and serves as a
// reference curve in the Figure 6 extension.
type RandomPolicy struct {
	sets, ways int
	rng        *xrand.RNG
}

// NewRandomPolicy returns a Random policy seeded deterministically.
func NewRandomPolicy(sets, ways int, seed uint64) *RandomPolicy {
	validateGeometry(sets, ways)
	return &RandomPolicy{sets: sets, ways: ways, rng: xrand.New(seed)}
}

// Kind returns Random.
func (p *RandomPolicy) Kind() Kind { return Random }

// Ways returns the associativity.
func (p *RandomPolicy) Ways() int { return p.ways }

// Sets returns the number of sets.
func (p *RandomPolicy) Sets() int { return p.sets }

// SetPartition is a no-op for Random.
func (p *RandomPolicy) SetPartition(masks []WayMask) {}

// Touch is a no-op: random replacement keeps no recency state.
func (p *RandomPolicy) Touch(set, way, core int) {}

// Fill is a no-op, like Touch.
func (p *RandomPolicy) Fill(set, way, core int, sig uint8) {}

// Invalidate is a no-op: there is no recency state to clear.
func (p *RandomPolicy) Invalidate(set, way int) {}

// Victim returns a uniformly random way from the allowed mask. It never
// allocates: the i-th set bit is selected directly from the mask.
func (p *RandomPolicy) Victim(set, core int, allowed WayMask) int {
	checkVictimArgs(set, p.sets, p.ways, allowed)
	m := allowed & Full(p.ways)
	return m.Nth(p.rng.Intn(m.Count()))
}
