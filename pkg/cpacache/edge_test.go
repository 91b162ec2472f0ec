package cpacache

import (
	"fmt"
	"testing"

	"repro/pkg/plru"
)

// waysOf returns the way a resident key occupies, or -1 (white box).
func waysOf[K comparable, V any](c *Cache[K, V], key K) (*shard[K, V], int, int) {
	sh, set, tag := c.locate(key)
	return sh, set, c.findLocked(sh, set*c.ways, c.tagBase(set), tag, key)
}

// TestFillUnownedWayOutsidePartition pins the single-pass empty-way scan's
// preserved semantics: when a tenant's own partition is full but the set
// still has unowned empty ways, a fill takes one of those (lowest first)
// instead of evicting — no quota is violated because nobody is displaced.
func TestFillUnownedWayOutsidePartition(t *testing.T) {
	for _, pol := range []plru.Kind{plru.LRU, plru.NRU, plru.BT, plru.Random} {
		t.Run(pol.String(), func(t *testing.T) {
			c := single(t, 4, 2, pol) // quotas [2 2]: tenant 0 owns ways {0,1}
			c.SetTenant(0, "a", 1)
			c.SetTenant(0, "b", 2)
			c.SetTenant(0, "c", 3) // partition full -> must land on an unowned way
			if c.Len() != 3 {
				t.Fatalf("Len = %d, want 3 (no eviction)", c.Len())
			}
			_, _, w := waysOf(c, "c")
			if w != 2 {
				t.Fatalf("overflow fill went to way %d, want lowest unowned empty way 2", w)
			}
			st := c.Stats()
			if st[0].Evictions != 0 || st[1].Evictions != 0 {
				t.Fatalf("fill into empty unowned way evicted: %+v", st)
			}
			// Tenant 1 now churns: it may displace "c" (which squats in
			// tenant 1's partition) but never "a"/"b".
			for i := 0; i < 100; i++ {
				c.SetTenant(1, fmt.Sprintf("t1-%d", i), i)
			}
			for _, k := range []string{"a", "b"} {
				if _, ok := c.GetTenant(0, k); !ok {
					t.Fatalf("tenant 0's in-partition line %q displaced by tenant 1", k)
				}
			}
		})
	}
}

// TestDeleteClearsTagAndRecency checks Delete leaves the slot fully
// reclaimed: tag byte empty (so probes skip it), owner -1, and the
// policy's recency state invalidated so the freed way reads as
// least-recent (white box per policy).
func TestDeleteClearsTagAndRecency(t *testing.T) {
	for _, pol := range []plru.Kind{plru.LRU, plru.NRU, plru.BT} {
		t.Run(pol.String(), func(t *testing.T) {
			c := single(t, 4, 1, pol)
			for i := 0; i < 4; i++ {
				c.Set(fmt.Sprintf("k%d", i), i)
			}
			sh, set, w := waysOf(c, "k1")
			if w < 0 {
				t.Fatal("setup: k1 not resident")
			}
			if !c.Delete("k1") {
				t.Fatal("Delete missed")
			}
			if tag := uint8(sh.tags[c.tagBase(set)+w>>3] >> (uint(w&7) * 8)); tag != tagEmpty {
				t.Fatalf("freed way still carries tag %#x", tag)
			}
			if sh.owner[set*c.ways+w] != -1 {
				t.Fatal("freed way still owned")
			}
			switch p := sh.pol.(type) {
			case *plru.LRUPolicy:
				if d := p.Dist(set, w); d != 4 {
					t.Fatalf("freed way at LRU distance %d, want 4 (least recent)", d)
				}
			case *plru.NRUPolicy:
				if p.Used(set, w) {
					t.Fatal("freed way's used bit survived Delete")
				}
			case *plru.BTPolicy:
				if v := p.Victim(set, 0, plru.Full(4)); v != w {
					t.Fatalf("BT victim after Delete = %d, want freed way %d", v, w)
				}
			}
			// The freed way is reused by the next fill, without eviction.
			c.Set("k9", 9)
			if _, _, got := waysOf(c, "k9"); got != w {
				t.Fatalf("next fill took way %d, want freed way %d", got, w)
			}
			if ev := c.Stats()[0].Evictions; ev != 0 {
				t.Fatalf("refilling a freed way evicted %d lines", ev)
			}
		})
	}
}

// TestLenLockFree checks Len over many shards agrees with a ground-truth
// count (it reads per-shard atomics, never locks or scans slots).
func TestLenLockFree(t *testing.T) {
	c, err := New[uint64, uint64](WithShards(8), WithSets(16), WithWays(4))
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for k := uint64(0); k < 300; k++ {
		c.Set(k, k)
		if _, ok := c.Get(k); ok {
			// still resident (inserts may displace earlier keys)
		}
	}
	for k := uint64(0); k < 300; k++ {
		if _, ok := c.Get(k); ok {
			want++
		}
	}
	if got := c.Len(); got != want {
		t.Fatalf("Len = %d, ground-truth resident count %d", got, want)
	}
	for k := uint64(0); k < 300; k += 3 {
		if c.Delete(k) {
			want--
		}
	}
	if got := c.Len(); got != want {
		t.Fatalf("Len after deletes = %d, want %d", got, want)
	}
}

// TestBatchArgumentChecks pins the batch API's contract violations.
func TestBatchArgumentChecks(t *testing.T) {
	c, err := New[int, int](WithShards(2), WithSets(8), WithWays(4))
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("short vals", func() { c.GetBatch(0, []int{1, 2}, make([]int, 1), make([]bool, 2)) })
	mustPanic("short oks", func() { c.GetBatch(0, []int{1, 2}, make([]int, 2), make([]bool, 1)) })
	mustPanic("len mismatch", func() { c.SetBatch(0, []int{1, 2}, []int{1}) })
	mustPanic("bad tenant", func() { c.GetBatch(7, []int{1}, make([]int, 1), make([]bool, 1)) })
	// Empty batches are no-ops.
	if n := c.GetBatch(0, nil, nil, nil); n != 0 {
		t.Fatalf("empty GetBatch = %d", n)
	}
	c.SetBatch(0, nil, nil)

	// Duplicate keys in one batch behave like sequential calls: last value
	// wins, occupying one slot.
	c.SetBatch(0, []int{5, 5, 5}, []int{1, 2, 3})
	if v, ok := c.Get(5); !ok || v != 3 {
		t.Fatalf("dup-key batch: Get(5) = %d,%v, want 3,true", v, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("dup-key batch occupied %d slots", c.Len())
	}
}

// TestBatchOnEvictAfterUnlock checks the displaced-entry callbacks run
// outside the shard lock (re-entering the cache from OnEvict must not
// deadlock) and carry coherent pairs.
func TestBatchOnEvictAfterUnlock(t *testing.T) {
	var c *Cache[uint64, uint64]
	evicted := 0
	var err error
	c, err = New[uint64, uint64](
		WithShards(2), WithSets(2), WithWays(2),
		WithOnEvict(func(k, v uint64) {
			evicted++
			if k*10 != v {
				t.Errorf("incoherent eviction pair (%d,%d)", k, v)
			}
			c.Get(k) // re-entry: deadlocks if called under the shard lock
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 64)
	vals := make([]uint64, 64)
	for i := range keys {
		keys[i] = uint64(i)
		vals[i] = uint64(i) * 10
	}
	c.SetBatch(0, keys, vals) // 64 inserts into 8 slots: heavy eviction
	if evicted < 50 {
		t.Fatalf("expected heavy eviction, got %d", evicted)
	}
}
