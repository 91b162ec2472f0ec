package plru

// Hooks for protect_test.go's state-space explorer, which lives in package
// plru_test.

// TreeBits packs set's ways-1 tree bits, heap node i at bit i-1.
func (p *BTPolicy) TreeBits(set int) uint64 {
	var b uint64
	for i := 1; i < p.ways; i++ {
		b |= uint64(p.node(set, i)) << uint(i-1)
	}
	return b
}

// SetTreeBits installs tree bits packed as TreeBits returns them.
func (p *BTPolicy) SetTreeBits(set int, b uint64) {
	for i := 1; i < p.ways; i++ {
		p.setNode(set, i, uint8(b>>uint(i-1)&1))
	}
}
