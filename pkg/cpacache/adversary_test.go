package cpacache

import (
	"hash/maphash"
	"testing"

	"repro/internal/workload"
	"repro/pkg/plru"
)

// collisionClass builds the classifier workload.CollisionKeys needs to
// attack this cache instance: two keys are in the same class iff they
// land in the same shard and set with the same packed tag byte — the
// exact condition under which only the full-key confirm tells them
// apart.
func collisionClass[V any](c *Cache[uint64, V]) func(uint64) uint64 {
	return func(k uint64) uint64 {
		h := maphash.Comparable(c.seed, k)
		d, set := c.place(h)
		return uint64(d)<<40 | uint64(set)<<8 | uint64(tagOf(h))
	}
}

// TestCollisionStormDifferential pours engineered tag-collision storms
// — several classes of same-shard/same-set/same-tag keys, interleaved,
// at 3x the set's associativity — through the cache and the linear-scan
// reference model under every policy. Every Get/Set/Delete result must
// match the model exactly, and every hit must return the value stored
// under that exact key: a tag-probe false positive that escapes the
// full-key confirm shows up as either divergence or a wrong value.
func TestCollisionStormDifferential(t *testing.T) {
	const shards, sets, ways, tenants = 2, 8, 8, 2
	const polSeed = 321
	for _, kind := range plru.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			c, err := New[uint64, uint64](
				WithShards(shards), WithSets(sets), WithWays(ways),
				WithPolicy(kind), WithPartitions(tenants), WithSeed(polSeed),
			)
			if err != nil {
				t.Fatal(err)
			}
			m := newRefModel(c, kind, polSeed)

			// Three collision classes, each 3x deeper than the set is
			// associative, interleaved so their sets stay under pressure
			// together. Distant starts give (usually) distinct classes —
			// coincidental overlap is harmless, it is just a deeper storm.
			class := collisionClass(c)
			var groups [][]uint64
			for _, start := range []uint64{1, 1 << 20, 1 << 30} {
				g := workload.CollisionKeys(class, start, 3*ways, 0)
				if len(g) < ways+1 {
					t.Fatalf("collision search from %d found only %d keys", start, len(g))
				}
				groups = append(groups, g)
			}
			storm := workload.InterleaveKeys(groups...)

			rng := uint64(kind)<<16 | 7
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			const steps = 20_000
			for i := 0; i < steps; i++ {
				key := storm[next()%uint64(len(storm))]
				tenant := int(next() % tenants)
				switch next() % 10 {
				case 0: // delete
					if got, want := c.Delete(key), m.delete(key); got != want {
						t.Fatalf("step %d: Delete(%d) = %v, model %v", i, key, got, want)
					}
				case 1, 2, 3: // store
					c.SetTenant(tenant, key, key*3)
					m.set(tenant, key, key*3)
				default: // lookup
					gv, gok := c.GetTenant(tenant, key)
					mv, mok := m.get(tenant, key)
					if gok != mok || gv != mv {
						t.Fatalf("step %d: Get(%d,%d) = (%d,%v), model (%d,%v)", i, tenant, key, gv, gok, mv, mok)
					}
					if gok && gv != key*3 {
						t.Fatalf("step %d: Get(%d) returned %d — a colliding key's value (want %d)",
							i, key, gv, key*3)
					}
				}
				if i%4096 == 0 {
					checkState(t, c, m, i)
				}
			}
			checkState(t, c, m, steps)
		})
	}
}

// FuzzCollisionStorm lets the fuzzer pick the class anchor, the op
// stream and the policy, keeps the op keys confined to one engineered
// collision class, and asserts the full-key confirm invariant: a hit
// returns exactly the value last stored under that key, never a
// collider's.
func FuzzCollisionStorm(f *testing.F) {
	f.Add(uint64(1), uint64(99), uint8(0))
	f.Add(uint64(1<<33), uint64(5), uint8(2))
	f.Add(uint64(12345), uint64(0xffff), uint8(5))
	kinds := plru.Kinds()
	f.Fuzz(func(t *testing.T, start, opSeed uint64, kindSel uint8) {
		kind := kinds[int(kindSel)%len(kinds)]
		c, err := New[uint64, uint64](
			WithShards(1), WithSets(4), WithWays(4), WithPolicy(kind),
		)
		if err != nil {
			t.Fatal(err)
		}
		keys := workload.CollisionKeys(collisionClass(c), start, 12, 1<<20)
		if len(keys) < 2 {
			t.Skip("bounded collision search came up short")
		}
		// last[k] tracks the value the cache must return for k when it
		// hits; eviction legitimately forgets keys, wrong values never.
		last := make(map[uint64]uint64, len(keys))
		rng := opSeed | 1
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		for i := 0; i < 512; i++ {
			k := keys[next()%uint64(len(keys))]
			switch next() % 8 {
			case 0:
				c.Delete(k)
				delete(last, k)
			case 1, 2, 3:
				v := next()
				c.Set(k, v)
				last[k] = v
			default:
				if v, ok := c.Get(k); ok {
					want, stored := last[k]
					if !stored {
						t.Fatalf("op %d: Get(%d) hit a key that was never stored (v=%d)", i, k, v)
					}
					if v != want {
						t.Fatalf("op %d: Get(%d) = %d, want %d — collision crossed the key confirm", i, k, v, want)
					}
				}
			}
		}
	})
}
