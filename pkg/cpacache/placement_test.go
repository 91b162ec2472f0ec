package cpacache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"hash/maphash"
	"sync"
	"testing"
	"time"

	"repro/pkg/plru"
)

// placementDigests pins, per policy, the SHA-256 of everything the
// placement-digest stream observes. They were recorded before shards
// were split into lock domains and must never be re-recorded: a
// mismatch means the split changed a hit, a victim, an expiration, a
// profile or a rebalance decision.
var placementDigests = map[plru.Kind]string{
	plru.LRU:  "ba8dbf1d75b00001881167bd43b00d78a8f2d42aab91a5e63cd48a93ff605bff",
	plru.NRU:  "00bd0e01edd3112b0969eb2c4794521ad6c2a4e30194c69d5d27f05bb64fd75f",
	plru.BT:   "b9a0e3299eabff203d26a2b88b79a216071cde8ef0882aa5f7a069aecf43f8e7",
	plru.AWRP: "4323bdf512ceffc4e1346c6eeb3da06661f3d7b18880a5bd2d9e30fd27da4b14",
	plru.ARC:  "d103d654ee40f8c0c85a3a66917e81017c69ca91dac4215e403c58df642e4533",
}

// digestKeys maps abstract key ids to concrete uint64 keys whose hash
// lands in a fixed (shard, set, tag) class, so a stream of abstract ids
// behaves identically whatever seed the process's hasher drew. Class of
// id a: shard a&7, set (a>>3)&255, tag bits a>>11 — the cache's hash
// layout for 8 shards of 256 sets (shard from the low hash bits, set
// from bits 32.., tag from bits 24..30).
func digestKeys(seed maphash.Seed, ids int) (keys []uint64, abstract map[uint64]uint64) {
	keys = make([]uint64, ids)
	found := make([]bool, ids)
	abstract = make(map[uint64]uint64, ids)
	for k, left := uint64(1), ids; left > 0; k++ {
		h := maphash.Comparable(seed, k)
		id := int(h&7 | (h>>32)&255<<3 | (h>>24)&0x7f<<11)
		if id < ids && !found[id] {
			found[id] = true
			keys[id] = k
			abstract[k] = uint64(id)
			left--
		}
	}
	return keys, abstract
}

// TestPlacementDigest drives one seeded single-threaded stream of
// Get/Set/SetTTL/Delete/Rebalance calls and clock advances through an
// 8×256×16 two-tenant cache per deterministic policy, hashing the
// hit/miss sequence, the eviction and expiration streams, the final miss
// curves, quotas, stats and length, and compares with the pinned digest.
func TestPlacementDigest(t *testing.T) {
	const ids = 1 << 16 // 2× the cache's 32 768 lines
	for _, kind := range []plru.Kind{plru.LRU, plru.NRU, plru.BT, plru.AWRP, plru.ARC} {
		t.Run(kind.String(), func(t *testing.T) {
			clk := newFakeClock()
			var sum hash.Hash
			var abstract map[uint64]uint64
			word := func(v uint64) { sum.Write(binary.LittleEndian.AppendUint64(nil, v)) }
			c, err := New[uint64, uint64](
				WithShards(8), WithSets(256), WithWays(16),
				WithPolicy(kind), WithPartitions(2), WithSeed(11),
				WithNow(clk.Load), WithTTLSweep(0),
				WithOnEvict(func(k, v uint64) { word(1<<32 | abstract[k]) }),
				WithOnExpire(func(k, v uint64) { word(2<<32 | abstract[k]) }),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			sum = sha256.New()
			var keys []uint64
			keys, abstract = digestKeys(c.seed, ids)

			rng := uint64(0x9E3779B97F4A7C15)
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			const steps = 300_000
			for i := 0; i < steps; i++ {
				op := next() % 100
				tenant := int(next() % 2)
				// Skewed ids: half the traffic on a hot eighth.
				id := next() % ids
				if next()%2 == 0 {
					id %= ids / 8
				}
				key := keys[id]
				switch {
				case op < 50:
					_, ok := c.GetTenant(tenant, key)
					if ok {
						word(3 << 32)
					} else {
						word(4 << 32)
					}
				case op < 78:
					c.SetTenant(tenant, key, id)
				case op < 86:
					c.SetTenantTTL(tenant, key, id, time.Duration(next()%400+1))
				case op < 90:
					if c.SetTTL(key, time.Duration(next()%400)) {
						word(5 << 32)
					}
				case op < 96:
					if c.Delete(key) {
						word(6 << 32)
					}
				default:
					clk.advance(time.Duration(next() % 16))
				}
				if i%25_000 == 24_999 {
					q, err := c.Rebalance()
					if err != nil {
						t.Fatal(err)
					}
					for _, n := range q {
						word(7<<32 | uint64(n))
					}
				}
			}
			for _, curve := range c.MissCurves() {
				for _, n := range curve {
					word(n)
				}
			}
			for _, n := range c.Quotas() {
				word(uint64(n))
			}
			for _, s := range c.Stats() {
				word(s.Hits)
				word(s.Misses)
				word(s.Evictions)
				word(s.Expirations)
			}
			word(uint64(c.Len()))
			got := hex.EncodeToString(sum.Sum(nil))
			if want := placementDigests[kind]; got != want {
				t.Errorf("digest %s, pinned %s", got, want)
			}
		})
	}
}

// TestDomainLayout checks how New splits configured shards into lock
// domains, that the configured geometry is what the accessors report,
// that place is a bijection onto (domain, local set), and that the
// profiler samples exactly the configured sets s with s % every == 0.
func TestDomainLayout(t *testing.T) {
	tests := []struct {
		name                string
		shards, sets, every int
		policy              plru.Kind
		domains, domainSets int
	}{
		{"default geometry", 1, 64, 16, plru.BT, 4, 16},
		{"bench geometry", 8, 256, 16, plru.BT, 64, 32},
		{"stops at 16 sets", 2, 256, 16, plru.LRU, 32, 16},
		{"every 3 across domain edges", 1, 1024, 3, plru.ARC, 64, 16},
		{"every beyond sets", 16, 64, 100, plru.AWRP, 64, 16},
		{"every 7", 8, 512, 7, plru.Random, 64, 64},
		{"64 shards stay whole", 64, 256, 16, plru.BT, 64, 256},
		{"modulo sets stay whole", 8, 100, 16, plru.BT, 8, 100},
		{"tiny sets stay whole", 4, 16, 1, plru.BT, 4, 16},
		{"NRU stays whole", 8, 256, 16, plru.NRU, 8, 256},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			const ways = 4
			c, err := New[uint64, uint64](
				WithShards(tc.shards), WithSets(tc.sets), WithWays(ways),
				WithPolicy(tc.policy), WithPartitions(2),
				WithProfileSampling(tc.every),
			)
			if err != nil {
				t.Fatal(err)
			}
			if len(c.shards) != tc.domains || c.sets != tc.domainSets {
				t.Fatalf("%d domains of %d sets, want %d of %d", len(c.shards), c.sets, tc.domains, tc.domainSets)
			}
			if c.Shards() != tc.shards || c.Sets() != tc.sets || c.Capacity() != tc.shards*tc.sets*ways {
				t.Fatalf("Shards/Sets/Capacity = %d/%d/%d, want the configured %d/%d/%d",
					c.Shards(), c.Sets(), c.Capacity(), tc.shards, tc.sets, tc.shards*tc.sets*ways)
			}
			every := min(tc.every, tc.sets)
			seen := make(map[[2]int]bool)
			for s := 0; s < tc.shards; s++ {
				for g := 0; g < tc.sets; g++ {
					d, set := c.place(uint64(g)<<32 | uint64(s))
					if seen[[2]int{d, set}] {
						t.Fatalf("shard %d set %d lands on (%d, %d) twice", s, g, d, set)
					}
					seen[[2]int{d, set}] = true
					if got := c.shards[d].prof.isSampled(set); got != (g%every == 0) {
						t.Fatalf("shard %d set %d: sampled %v, want %v", s, g, got, g%every == 0)
					}
				}
			}
			if len(seen) != tc.domains*tc.domainSets {
				t.Fatalf("place covers %d slots of %d", len(seen), tc.domains*tc.domainSets)
			}
		})
	}
}

// TestDomainSplitStress hammers a split cache — 2 shards × 256 sets, so
// 32 lock domains — with per-tenant Get/Set/SetTTL/Delete traffic while
// Rebalance, SetQuotas and the TTL sweeper run, under WithMaxBytes and a
// hard tenant budget, so budget enforcement walks the domain ring. It
// exists to run under -race. At quiescence the slot walk must agree with
// UsedBytes, every tenant's Stats().Bytes, the governor's gauges and Len,
// and no hard limit may be exceeded.
func TestDomainSplitStress(t *testing.T) {
	const (
		workers  = 4
		ops      = 20_000
		keySpace = 16_384
		maxBytes = 16_384
	)
	budgets := []uint64{6_000, 0}
	c, err := New[uint64, uint64](
		WithShards(2), WithSets(256), WithWays(8),
		WithPolicy(plru.BT), WithPartitions(2),
		WithCost(func(k, v uint64) uint64 { return k%16 + 1 }),
		WithHardBudgets(), WithMaxBytes(maxBytes),
		WithTTLSweep(time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.shards) != 32 {
		t.Fatalf("%d lock domains, want 32", len(c.shards))
	}
	if err := c.SetBudgets(budgets); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := w % 2
			rng := uint64(w+1) * 0x9E3779B97F4A7C15
			for i := 0; i < ops; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				key := rng % keySpace
				switch rng >> 61 {
				case 0, 1, 2:
					if v, ok := c.GetTenant(tenant, key); ok && v != key {
						t.Errorf("key %d holds %d", key, v)
						return
					}
				case 3, 4:
					if err := c.SetTenant(tenant, key, key); err != nil {
						t.Error(err)
						return
					}
				case 5:
					if err := c.SetTenantTTL(tenant, key, key, time.Duration(rng%3+1)*time.Millisecond); err != nil {
						t.Error(err)
						return
					}
				case 6:
					c.SetTTL(key, time.Duration(rng%3)*time.Millisecond)
				default:
					c.Delete(key)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	var ctl sync.WaitGroup
	ctl.Add(1)
	go func() {
		defer ctl.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if _, err := c.Rebalance(); err != nil {
				t.Error(err)
				return
			}
			if err := c.SetQuotas([]int{i%7 + 1, 7 - i%7}); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	wg.Wait()
	close(done)
	ctl.Wait()
	c.Close() // stops the sweeper: the cache is quiescent from here on
	if t.Failed() {
		return
	}

	perTenant, total := residentBytes(c)
	live := 0
	for i := range c.shards {
		for _, owner := range c.shards[i].owner {
			if owner >= 0 {
				live++
			}
		}
	}
	if got := c.Len(); got != live {
		t.Fatalf("Len %d, slot walk %d", got, live)
	}
	if got := c.UsedBytes(); got != total {
		t.Fatalf("UsedBytes %d, slot walk %d", got, total)
	}
	if got := uint64(c.gaugeTotal.Load()); got != total {
		t.Fatalf("global gauge %d, slot walk %d", got, total)
	}
	if total > maxBytes {
		t.Fatalf("resident %d bytes over WithMaxBytes %d", total, maxBytes)
	}
	var budgetEv, expired uint64
	for tn, st := range c.Stats() {
		budgetEv += st.BudgetEvictions
		expired += st.Expirations
		if st.Bytes != perTenant[tn] {
			t.Fatalf("tenant %d: Stats().Bytes %d, slot walk %d", tn, st.Bytes, perTenant[tn])
		}
		if got := uint64(c.gaugeTenant[tn].Load()); got != perTenant[tn] {
			t.Fatalf("tenant %d: gauge %d, slot walk %d", tn, got, perTenant[tn])
		}
		if b := budgets[tn]; b > 0 && perTenant[tn] > b {
			t.Fatalf("tenant %d: %d bytes over its hard budget %d", tn, perTenant[tn], b)
		}
	}
	if budgetEv == 0 || expired == 0 {
		t.Fatalf("%d budget evictions, %d expirations: the stress never reached the governor or the TTL path", budgetEv, expired)
	}
}
