package cpacache

import (
	"hash/maphash"
	"testing"

	"repro/pkg/plru"
)

// naiveZeroBytes is the obvious byte loop the SWAR scan must agree with.
func naiveZeroBytes(w uint64) uint64 {
	var out uint64
	for i := 0; i < 8; i++ {
		if uint8(w>>(8*i)) == 0 {
			out |= 0x80 << (8 * i)
		}
	}
	return out
}

func naiveMatch(w uint64, tag uint8) uint64 {
	var out uint64
	for i := 0; i < 8; i++ {
		if uint8(w>>(8*i)) == tag {
			out |= 0x80 << (8 * i)
		}
	}
	return out
}

// TestSWARAgainstNaive drives the SWAR primitives across adversarial byte
// patterns (the classic (w-lo)&^w&hi trick has false positives exactly
// here: 0x00 followed by 0x01, bytes equal to 0x80) plus pseudo-random
// words, comparing against naive byte loops.
func TestSWARAgainstNaive(t *testing.T) {
	words := []uint64{
		0, ^uint64(0),
		0x0100000000000000, 0x0001000000000000, 0x0000000000000100,
		0x0101010101010101, 0x8080808080808080, 0x0080008000800080,
		0x0001020304050680, 0x00FF00FF00FF00FF, 0x8000000000000001,
		0x0100010001000100, 0x8181818181818181 & ^uint64(0),
	}
	rng := uint64(0x243F6A8885A308D3)
	for i := 0; i < 4096; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		words = append(words, rng)
		// Bias toward low bytes so zeros and 0x01/0x80 neighborships occur.
		words = append(words, rng&0x0101808001010880)
	}
	for _, w := range words {
		if got, want := zeroBytes(w), naiveZeroBytes(w); got != want {
			t.Fatalf("zeroBytes(%#x) = %#x, want %#x", w, got, want)
		}
		for _, tag := range []uint8{0x00, 0x01, 0x80, 0x81, 0xFF, uint8(w)} {
			if got, want := matchTag(w, tag), naiveMatch(w, tag); got != want {
				t.Fatalf("matchTag(%#x, %#x) = %#x, want %#x", w, tag, got, want)
			}
		}
		// Compression round-trip: every mark lands on its way bit.
		marks := zeroBytes(w)
		bitsOut := byteMarksToBits(marks)
		for i := 0; i < 8; i++ {
			want := uint64(0)
			if marks&(0x80<<(8*i)) != 0 {
				want = 1
			}
			if (bitsOut>>i)&1 != want {
				t.Fatalf("byteMarksToBits(%#x) bit %d = %d, want %d", marks, i, (bitsOut>>i)&1, want)
			}
		}
	}
}

// TestTagOfAlwaysOccupied pins the valid-bit folding: an occupied tag can
// never be the empty byte, whatever the hash.
func TestTagOfAlwaysOccupied(t *testing.T) {
	for _, h := range []uint64{0, ^uint64(0), 0x00FF000000000000, 1 << 24} {
		if tagOf(h) == tagEmpty {
			t.Fatalf("tagOf(%#x) produced the empty tag", h)
		}
		if tagOf(h)&0x80 == 0 {
			t.Fatalf("tagOf(%#x) missing the valid bit", h)
		}
	}
}

// findCollider searches for a key that lands in the same shard and set as
// ref with the same tag byte — i.e. a genuine 7-bit tag collision the
// probe must resolve through full key comparison. Returns ok=false if the
// bounded search fails (practically impossible at 4 sets × 1 shard).
func findCollider[V any](c *Cache[uint64, V], ref uint64, start uint64) (uint64, bool) {
	href := maphash.Comparable(c.seed, ref)
	for k, n := start, 0; n < 1<<18; n++ {
		if k != ref {
			h := maphash.Comparable(c.seed, k)
			d, set := c.place(h)
			if dref, setref := c.place(href); d == dref && set == setref && tagOf(h) == tagOf(href) {
				return k, true
			}
		}
		k++
	}
	return 0, false
}

// FuzzTagCollisionFallback proves the fallback key comparison keeps two
// colliding keys (same shard, same set, same 8-bit tag byte, different
// key) fully independent: both resolve, deletes hit the right slot, and
// updates never cross.
func FuzzTagCollisionFallback(f *testing.F) {
	f.Add(uint64(1), uint64(1000))
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(42), uint64(7))
	f.Fuzz(func(t *testing.T, a, start uint64) {
		c, err := New[uint64, uint64](
			WithShards(1), WithSets(4), WithWays(4), WithPolicy(plru.LRU),
		)
		if err != nil {
			t.Fatal(err)
		}
		b, ok := findCollider(c, a, start)
		if !ok {
			t.Skip("no collider found in bounded search")
		}
		c.Set(a, a+1)
		c.Set(b, b+2)
		if v, ok := c.Get(a); !ok || v != a+1 {
			t.Fatalf("Get(a=%d) = %d,%v after colliding insert of b=%d", a, v, ok, b)
		}
		if v, ok := c.Get(b); !ok || v != b+2 {
			t.Fatalf("Get(b=%d) = %d,%v", b, v, ok)
		}
		// Update through the collision, both directions.
		c.Set(a, a+10)
		if v, _ := c.Get(a); v != a+10 {
			t.Fatalf("update of a crossed into b's slot")
		}
		if v, _ := c.Get(b); v != b+2 {
			t.Fatalf("b corrupted by a's update")
		}
		// Delete one collider; the other must survive untouched.
		if !c.Delete(a) {
			t.Fatal("Delete(a) missed")
		}
		if _, ok := c.Get(a); ok {
			t.Fatal("a still resident after Delete")
		}
		if v, ok := c.Get(b); !ok || v != b+2 {
			t.Fatalf("Delete(a) disturbed b: %d,%v", v, ok)
		}
		// Reinsert a into the freed slot and re-check independence.
		c.Set(a, a+20)
		if v, ok := c.Get(a); !ok || v != a+20 {
			t.Fatalf("reinsert of a failed: %d,%v", v, ok)
		}
		if v, ok := c.Get(b); !ok || v != b+2 {
			t.Fatalf("reinsert of a disturbed b: %d,%v", v, ok)
		}
	})
}
