package plru

// Hooks for the state-space explorer (protect_test.go) and the Table I(a)
// width check (plru_test.go), which live in package plru_test.

// TreeBits returns set's ways-1 tree bits, heap node i at bit i-1.
func (p *BTPolicy) TreeBits(set int) uint64 { return p.tree[set] }

// SetTreeBits installs tree bits packed as TreeBits returns them.
func (p *BTPolicy) SetTreeBits(set int, b uint64) { p.tree[set] = b }

// UsedBits returns set's used bits, way w at bit w.
func (p *NRUPolicy) UsedBits(set int) uint64 { return p.used[set] }
