package cpacache

import (
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/plru"
)

// newBenchCache builds the geometry used by every cpacache benchmark:
// 8 shards × 256 sets × 8 ways.
func newBenchCache(b *testing.B, policy plru.Kind, tenants int) *Cache[uint64, uint64] {
	b.Helper()
	c, err := New[uint64, uint64](
		WithShards(8), WithSets(256), WithWays(8),
		WithPolicy(policy), WithPartitions(tenants),
	)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkGetHit measures the single-threaded lookup hot path on a warm
// cache. It must stay allocation-free.
func BenchmarkGetHit(b *testing.B) {
	c := newBenchCache(b, plru.BT, 1)
	const keys = 1024
	for k := uint64(0); k < keys; k++ {
		c.Set(k, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(uint64(i) % keys)
	}
}

// BenchmarkSetChurn measures inserts that continuously evict (key space
// far beyond capacity), exercising victim selection every time.
func BenchmarkSetChurn(b *testing.B) {
	for _, pol := range []plru.Kind{plru.BT, plru.NRU, plru.LRU, plru.AWRP, plru.ARC} {
		b.Run(pol.String(), func(b *testing.B) {
			c := newBenchCache(b, pol, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := uint64(i)
				c.Set(k, k)
			}
		})
	}
}

// BenchmarkParallelGetSet is the sharded concurrent hot path: every
// goroutine mixes 90% lookups with 10% inserts over a working set about
// 2× capacity, across 4 tenants.
func BenchmarkParallelGetSet(b *testing.B) {
	c := newBenchCache(b, plru.BT, 4)
	const keySpace = 32_768
	var ctr atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		tenant := int(ctr.Add(1)) % 4
		rng := ctr.Load()*0x9E3779B97F4A7C15 + 1
		for pb.Next() {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			k := rng % keySpace
			if rng%10 == 0 {
				c.SetTenant(tenant, k, k)
			} else if v, ok := c.GetTenant(tenant, k); ok && v != k {
				b.Error("corrupted value")
			}
		}
	})
}

// BenchmarkParallelGetHit is the pure read-scaling number: every
// goroutine does warm lookups only, spread over 8 shard locks. On a
// 1-CPU host it degenerates to BenchmarkGetHit plus RunParallel
// overhead.
func BenchmarkParallelGetHit(b *testing.B) {
	c := newBenchCache(b, plru.BT, 1)
	const keys = 1024
	for k := uint64(0); k < keys; k++ {
		c.Set(k, k)
	}
	var ctr atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := ctr.Add(1)*0x9E3779B97F4A7C15 + 1
		for pb.Next() {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			if v, ok := c.Get(rng % keys); ok && v != rng%keys {
				b.Error("corrupted value")
			}
		}
	})
}

// BenchmarkGetHitAdaptive is BenchmarkGetHit with policy auto-selection
// on: the warm lookup pays the shadow-directory probe only on sampled
// sets (1 in 16 by default); the rest of the overhead is the recency
// fan-out to every warm candidate on each hit.
func BenchmarkGetHitAdaptive(b *testing.B) {
	c, err := New[uint64, uint64](
		WithShards(8), WithSets(256), WithWays(8),
		WithPolicy(plru.LRU), WithPolicyAutoSelect(),
	)
	if err != nil {
		b.Fatal(err)
	}
	const keys = 1024
	for k := uint64(0); k < keys; k++ {
		c.Set(k, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(uint64(i) % keys)
	}
}

// BenchmarkSetChurnAdaptive is BenchmarkSetChurn with auto-selection on:
// every insert's victim selection routes through the tenant's selected
// instance and its recency fan-out reaches every warm candidate.
func BenchmarkSetChurnAdaptive(b *testing.B) {
	c, err := New[uint64, uint64](
		WithShards(8), WithSets(256), WithWays(8),
		WithPolicy(plru.LRU), WithPolicyAutoSelect(),
	)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i)
		c.Set(k, k)
	}
}

// BenchmarkGetHitTTL is BenchmarkGetHit with every entry carrying a
// deadline (WithDefaultTTL): the acceptance bar for the TTL data plane is
// that this stays 0 allocs/op and within 10% of BenchmarkGetHit.
func BenchmarkGetHitTTL(b *testing.B) {
	c, err := New[uint64, uint64](
		WithShards(8), WithSets(256), WithWays(8),
		WithPolicy(plru.BT), WithDefaultTTL(time.Hour),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	const keys = 1024
	for k := uint64(0); k < keys; k++ {
		c.Set(k, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(uint64(i) % keys)
	}
}

// BenchmarkSetChurnTTLCost is BenchmarkSetChurn/BT with the full
// lifecycle data plane on: default TTL and cost accounting.
func BenchmarkSetChurnTTLCost(b *testing.B) {
	c, err := New[uint64, uint64](
		WithShards(8), WithSets(256), WithWays(8),
		WithPolicy(plru.BT), WithDefaultTTL(time.Hour),
		WithCost(func(k, v uint64) uint64 { return 8 }),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i)
		c.Set(k, k)
	}
}

// batchSize is the per-call batch width of the batch benchmarks; ns/op
// numbers are per key (the loops step b.N by batchSize), so they compare
// directly against BenchmarkGetHit / BenchmarkSetChurn.
const batchSize = 64

// BenchmarkGetBatch measures the per-key cost of warm batched lookups,
// the GetTenant loop plus the batch call's own overhead.
func BenchmarkGetBatch(b *testing.B) {
	c := newBenchCache(b, plru.BT, 1)
	const keys = 1024
	for k := uint64(0); k < keys; k++ {
		c.Set(k, k)
	}
	kb := make([]uint64, batchSize)
	vb := make([]uint64, batchSize)
	ob := make([]bool, batchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batchSize {
		for j := range kb {
			kb[j] = uint64(i+j) % keys
		}
		c.GetBatch(0, kb, vb, ob)
	}
}

// BenchmarkSetBatch measures the per-key cost of batched inserts that
// continuously evict — the batched twin of BenchmarkSetChurn/BT.
func BenchmarkSetBatch(b *testing.B) {
	c := newBenchCache(b, plru.BT, 1)
	kb := make([]uint64, batchSize)
	vb := make([]uint64, batchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batchSize {
		for j := range kb {
			kb[j] = uint64(i + j)
			vb[j] = kb[j]
		}
		c.SetBatch(0, kb, vb)
	}
}

// BenchmarkRebalance measures a full profile-aggregate + MinMisses +
// mask-install cycle, the control-plane cost paid per repartition interval.
func BenchmarkRebalance(b *testing.B) {
	c := newBenchCache(b, plru.BT, 4)
	for k := uint64(0); k < 16_384; k++ {
		c.GetTenant(int(k)%4, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Rebalance(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDaemonOps runs the cache operations on the daemon's own types:
// Cache[string, []byte] with the server's WithCost measurement (key plus
// value length), 8 shards × 256 sets × 16 ways, BT, 2 tenants and 64-byte
// values. The uint64 benchmarks above time the same paths on the
// smallest key and value the cache can hold.
func BenchmarkDaemonOps(b *testing.B) {
	build := func(b *testing.B) *Cache[string, []byte] {
		c, err := New[string, []byte](
			WithShards(8), WithSets(256), WithWays(16),
			WithPolicy(plru.BT), WithPartitions(2),
			WithCost(func(k string, v []byte) uint64 { return uint64(len(k) + len(v)) }),
		)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		return c
	}
	// Four times capacity, so SetChurn and SetTenantTTL evict on nearly
	// every insert; GetHit reads a resident prefix.
	keys := make([]string, 4*8*256*16)
	for i := range keys {
		keys[i] = "key:" + strconv.Itoa(i)
	}
	val := make([]byte, 64)
	const hot = 1024

	b.Run("GetHit", func(b *testing.B) {
		c := build(b)
		for _, k := range keys[:hot] {
			c.Set(k, val)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Get(keys[i%hot])
		}
	})
	b.Run("SetChurn", func(b *testing.B) {
		c := build(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Set(keys[i%len(keys)], val)
		}
	})
	b.Run("SetTenantTTL", func(b *testing.B) {
		c := build(b)
		c.SetTenantTTL(0, keys[0], val, time.Minute) // arm the TTL wheel untimed
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.SetTenantTTL(i&1, keys[i%len(keys)], val, time.Minute)
		}
	})
	// ParallelGetSet mixes 90% lookups with 10% inserts over twice the
	// capacity, each goroutine as one tenant.
	b.Run("ParallelGetSet", func(b *testing.B) {
		c := build(b)
		space := uint64(len(keys) / 2)
		var ctr atomic.Uint64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			tenant := int(ctr.Add(1)) % 2
			rng := ctr.Load()*0x9E3779B97F4A7C15 + 1
			for pb.Next() {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				k := keys[rng%space]
				if rng%10 == 0 {
					c.SetTenant(tenant, k, val)
				} else {
					c.GetTenant(tenant, k)
				}
			}
		})
	})
	// TwoTenants has lib_mixed's shape: each goroutine is one tenant on
	// its own half of the keys (twice the capacity each), reading
	// cache-aside — a miss sets the key — with three quarters of the
	// reads on a hot sixteenth of its half. Run with -cpu 1,2 to see
	// what the second core buys.
	b.Run("TwoTenants", func(b *testing.B) {
		c := build(b)
		half := uint64(len(keys) / 2)
		var ctr atomic.Uint64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			id := ctr.Add(1) - 1
			tenant := int(id % 2)
			own := keys[uint64(tenant)*half : uint64(tenant+1)*half]
			rng := id*0x9E3779B97F4A7C15 + 1
			for pb.Next() {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				i := rng % half
				if rng>>62 != 0 {
					i %= half / 16
				}
				if _, ok := c.GetTenant(tenant, own[i]); !ok {
					c.SetTenant(tenant, own[i], val)
				}
			}
		})
	})
}
