package plru

import (
	"fmt"
	"testing"

	"repro/internal/xrand"
)

// The differential tests below drive one seeded stream of every mutating
// call through the word-per-set policies and through the byte- and
// bool-per-bit reference models (refmodel_test.go), and compare every
// return value, every introspection read and the packed state after each
// step: BT at every power of two from 2 to 64 ways, NRU at 1 to 64 ways
// including odd ones. The golden sequences cover only 8 ways.

const diffSets, diffSteps = 3, 20000

// diffMask draws a non-empty mask over the low `ways` bits: a single way,
// an aligned block or a uniformly random subset.
func diffMask(rng *xrand.RNG, ways int) WayMask {
	switch rng.Intn(3) {
	case 0:
		return WayMask(0).With(rng.Intn(ways))
	case 1:
		return Full(ways) &^ Full(rng.Intn(ways))
	}
	for {
		if m := WayMask(rng.Uint64()) & Full(ways); m != 0 {
			return m
		}
	}
}

func TestBTMatchesReference(t *testing.T) {
	for ways := 2; ways <= MaxWays; ways *= 2 {
		t.Run(fmt.Sprintf("ways=%d", ways), func(t *testing.T) {
			p, ref := NewBTPolicy(diffSets, ways), newRefBT(diffSets, ways)
			rng := xrand.New(uint64(ways))
			for step := 0; step < diffSteps; step++ {
				set, way := rng.Intn(diffSets), rng.Intn(ways)
				var op string
				switch rng.Intn(5) {
				case 0:
					op = "Touch"
					p.Touch(set, way, 0)
					ref.Touch(set, way, 0)
				case 1:
					op = "Fill"
					p.Fill(set, way, 0, uint8(step))
					ref.Fill(set, way, 0, uint8(step))
				case 2:
					op = "Invalidate"
					p.Invalidate(set, way)
					ref.Invalidate(set, way)
				case 3:
					mask := diffMask(rng, ways)
					op = fmt.Sprintf("Victim(%v)", mask)
					if got, want := p.Victim(set, 0, mask), ref.Victim(set, 0, mask); got != want {
						t.Fatalf("step %d %s: victim %d, reference %d", step, op, got, want)
					}
				default:
					size := 1 << uint(rng.Intn(p.Levels()+1))
					lo := rng.Intn(ways/size) * size
					up, down := forceVectorsForBlock(ways, lo, size)
					op = fmt.Sprintf("VictimForced[%d,%d)", lo, lo+size)
					if got, want := p.VictimForced(set, up, down), ref.VictimForced(set, up, down); got != want {
						t.Fatalf("step %d %s: victim %d, reference %d", step, op, got, want)
					}
				}
				var packed uint64
				for i := 1; i < ways; i++ {
					packed |= uint64(ref.node(set, i)) << uint(i-1)
				}
				if p.tree[set] != packed {
					t.Fatalf("step %d %s: tree %#x, reference %#x", step, op, p.tree[set], packed)
				}
				for w := 0; w < ways; w++ {
					if got, want := p.PathBits(set, w), ref.PathBits(set, w); got != want {
						t.Fatalf("step %d %s: PathBits(%d) %b, reference %b", step, op, w, got, want)
					}
					if got, want := p.EstStackPos(set, w), ref.EstStackPos(set, w); got != want {
						t.Fatalf("step %d %s: EstStackPos(%d) %d, reference %d", step, op, w, got, want)
					}
				}
			}
		})
	}
}

func TestNRUMatchesReference(t *testing.T) {
	const cores = 2
	for _, ways := range []int{1, 3, 8, 16, 33, 64} {
		t.Run(fmt.Sprintf("ways=%d", ways), func(t *testing.T) {
			p, ref := NewNRUPolicy(diffSets, ways, cores), newRefNRU(diffSets, ways, cores)
			rng := xrand.New(uint64(ways))
			for step := 0; step < diffSteps; step++ {
				set, way, core := rng.Intn(diffSets), rng.Intn(ways), rng.Intn(cores)
				var op string
				switch rng.Intn(9) {
				case 0, 1:
					op = "Touch"
					p.Touch(set, way, core)
					ref.Touch(set, way, core)
				case 2, 3:
					op = "Fill"
					p.Fill(set, way, core, uint8(step))
					ref.Fill(set, way, core, uint8(step))
				case 4:
					op = "Invalidate"
					p.Invalidate(set, way)
					ref.Invalidate(set, way)
				case 5, 6, 7:
					mask := diffMask(rng, ways)
					op = fmt.Sprintf("Victim(%v)", mask)
					if got, want := p.Victim(set, core, mask), ref.Victim(set, core, mask); got != want {
						t.Fatalf("step %d %s: victim %d, reference %d", step, op, got, want)
					}
				default:
					// Partitions change rarely and include the zero mask
					// (the whole set) and nil (unpartitioned).
					var masks []WayMask
					if rng.Intn(4) != 0 {
						masks = []WayMask{diffMask(rng, ways), diffMask(rng, ways) &^ WayMask(rng.Uint64()&1)}
					}
					op = fmt.Sprintf("SetPartition(%v)", masks)
					p.SetPartition(masks)
					ref.SetPartition(masks)
				}
				var packed uint64
				for w := 0; w < ways; w++ {
					if ref.Used(set, w) {
						packed |= 1 << uint(w)
					}
					if got, want := p.Used(set, w), ref.Used(set, w); got != want {
						t.Fatalf("step %d %s: Used(%d) %v, reference %v", step, op, w, got, want)
					}
				}
				if p.used[set] != packed {
					t.Fatalf("step %d %s: used %#x, reference %#x", step, op, p.used[set], packed)
				}
				if got, want := p.UsedCount(set), ref.UsedCount(set); got != want {
					t.Fatalf("step %d %s: UsedCount %d, reference %d", step, op, got, want)
				}
				if got, want := p.Pointer(), ref.Pointer(); got != want {
					t.Fatalf("step %d %s: Pointer %d, reference %d", step, op, got, want)
				}
			}
		})
	}
}
