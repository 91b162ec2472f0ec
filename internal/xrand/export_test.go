package xrand

// Hooks for geometric_test.go, which lives in package xrand_test because
// it draws its probabilities from internal/workload, which imports xrand.

// Value is the sampler's table path (with its fallback) for a 53-bit draw.
func (g *Geometric) Value(d uint64) int { return g.value(d) }

// Exact is the defining formula for a 53-bit draw.
func (g *Geometric) Exact(d uint64) int { return g.exact(d) }

// Edges lists, for every tabulated threshold, the lower edge of its
// fallback band, the threshold itself (to within 1) and the upper edge.
func (g *Geometric) Edges() []uint64 {
	var out []uint64
	for _, b := range g.band[:max(len(g.band)-1, 0)] {
		out = append(out, b.lo, b.lo+(b.hi-b.lo)/2, b.hi)
	}
	return out
}
