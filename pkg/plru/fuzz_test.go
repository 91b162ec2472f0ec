package plru

import "testing"

// FuzzVictimInMask drives every policy family through a fuzzer-chosen
// schedule of Touch/Fill/Invalidate/Victim/SetPartition operations and
// checks the core contract the partitioning enforcement relies on: Victim
// never returns a way outside the allowed mask (nor outside the geometry,
// even when the mask carries bits above the associativity).
func FuzzVictimInMask(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint64(1), []byte{0x00, 0x7F, 0xA5})
	f.Add(uint8(1), uint8(4), uint64(7), []byte{0xFF, 0x01, 0x80, 0x3C})
	f.Add(uint8(2), uint8(3), uint64(9), []byte{0x10, 0x42})
	f.Add(uint8(3), uint8(6), uint64(3), []byte{0xEE, 0x12, 0x9A, 0x55, 0x04})
	f.Add(uint8(4), uint8(3), uint64(11), []byte{0x21, 0x13, 0x08, 0x6D})
	f.Add(uint8(5), uint8(5), uint64(13), []byte{0xC4, 0x3B, 0x57, 0x02, 0x99})
	f.Fuzz(func(t *testing.T, kindRaw, waysExp uint8, seed uint64, ops []byte) {
		kinds := Kinds()
		kind := kinds[int(kindRaw)%len(kinds)]
		ways := 1 << (int(waysExp) % 7) // 1..64: every policy accepts these
		const sets, cores = 8, 3
		p := New(kind, sets, ways, cores, seed)

		// A cheap deterministic stream to stretch each op byte into a mask.
		rng := seed | 1
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}

		for i, op := range ops {
			set := int(op) % sets
			core := int(op>>3) % cores
			switch op % 5 {
			case 0:
				p.Touch(set, int(next()%uint64(ways)), core)
			case 1:
				// Random mask, sometimes with bits above the associativity.
				mask := WayMask(next())
				if mask&Full(ways) == 0 {
					mask |= Full(ways)
				}
				v := p.Victim(set, core, mask)
				if v < 0 || v >= ways {
					t.Fatalf("%v ways=%d op=%d: victim %d outside geometry", kind, ways, i, v)
				}
				if !mask.Has(v) {
					t.Fatalf("%v ways=%d op=%d: victim %d outside mask %v", kind, ways, i, v, mask)
				}
				p.Touch(set, v, core)
			case 2:
				p.Fill(set, int(next()%uint64(ways)), core, uint8(next()))
			case 3:
				p.Invalidate(set, int(next()%uint64(ways)))
			default:
				// Install (or clear) a partition mid-stream; masks may be
				// empty for some cores, which scope() treats as "whole set".
				if op&0x40 != 0 {
					p.SetPartition(nil)
				} else {
					masks := make([]WayMask, cores)
					for c := range masks {
						masks[c] = WayMask(next()) & Full(ways)
					}
					p.SetPartition(masks)
				}
			}
		}
	})
}
