package cpacache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/plru"
)

// TestConcurrentStress hammers a sharded cache from many goroutines doing
// mixed Get/Set/Delete traffic across tenants while another goroutine
// rebalances quotas and reads stats. It exists to run under -race (the CI
// test step) and to check invariants survive heavy interleaving.
func TestConcurrentStress(t *testing.T) {
	const (
		workers   = 8
		opsPerG   = 20_000
		keySpace  = 4_096
		tenants   = 4
		rebalance = 50 // quota churn iterations
	)
	c, err := New[uint64, uint64](
		WithShards(8), WithSets(64), WithWays(8),
		WithPolicy(plru.BT), WithPartitions(tenants),
		WithOnEvict(func(k, v uint64) {
			if k != v {
				panic("evicted pair corrupted")
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}

	var wrong atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := g % tenants
			rng := uint64(g)*0x9E3779B97F4A7C15 + 1
			for i := 0; i < opsPerG; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				key := rng % keySpace
				switch rng % 8 {
				case 0:
					c.Delete(key)
				case 1, 2, 3:
					c.SetTenant(tenant, key, key)
				default:
					if v, ok := c.GetTenant(tenant, key); ok && v != key {
						wrong.Add(1)
					}
				}
			}
		}(g)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rebalance; i++ {
			if _, err := c.Rebalance(); err != nil {
				panic(fmt.Sprintf("rebalance: %v", err))
			}
			_ = c.Stats()
			_ = c.MissCurves()
			_ = c.Len()
			if err := c.SetQuotas([]int{2, 2, 2, 2}); err != nil {
				panic(fmt.Sprintf("setquotas: %v", err))
			}
		}
	}()
	wg.Wait()

	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d lookups returned a value that did not match its key", n)
	}
	if got, cap := c.Len(), c.Capacity(); got > cap {
		t.Fatalf("Len %d exceeds capacity %d", got, cap)
	}
	st := c.Stats()
	var total uint64
	for _, s := range st {
		total += s.Hits + s.Misses
	}
	// Lookups are ~4/8 of the op mix; anything close to that proves the
	// counters are not losing updates under contention.
	if want := uint64(workers * opsPerG / 3); total < want {
		t.Fatalf("stats lost traffic: %d recorded, want >= %d", total, want)
	}
}

// TestConcurrentBatchStress hammers GetBatch/SetBatch from many
// goroutines (each with its own key/value slices, as the API requires)
// while per-key ops, deletes and rebalances interleave. It exists to run
// under -race.
func TestConcurrentBatchStress(t *testing.T) {
	const (
		workers  = 6
		rounds   = 400
		batch    = 96
		keySpace = 4_096
		tenants  = 4
	)
	c, err := New[uint64, uint64](
		WithShards(8), WithSets(64), WithWays(8),
		WithPolicy(plru.BT), WithPartitions(tenants),
		WithOnEvict(func(k, v uint64) {
			if k != v {
				panic("evicted pair corrupted")
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	var wrong atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := g % tenants
			keys := make([]uint64, batch)
			vals := make([]uint64, batch)
			oks := make([]bool, batch)
			rng := uint64(g)*0x9E3779B97F4A7C15 + 3
			for r := 0; r < rounds; r++ {
				for i := range keys {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					keys[i] = rng % keySpace
					vals[i] = keys[i]
				}
				switch r % 3 {
				case 0:
					c.SetBatch(tenant, keys, vals)
				case 1:
					c.GetBatch(tenant, keys, vals, oks)
					for i := range keys {
						if oks[i] && vals[i] != keys[i] {
							wrong.Add(1)
						}
					}
				default:
					for _, k := range keys[:8] {
						c.Delete(k)
					}
					c.SetTenant(tenant, keys[0], keys[0])
					c.GetTenant(tenant, keys[1])
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if _, err := c.Rebalance(); err != nil {
				panic(fmt.Sprintf("rebalance: %v", err))
			}
			_ = c.Len()
		}
	}()
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d batch lookups returned a value that did not match its key", n)
	}
	if got, cap := c.Len(), c.Capacity(); got > cap {
		t.Fatalf("Len %d exceeds capacity %d", got, cap)
	}
}

// TestConcurrentLifecycleStress hammers a cache whose whole lifecycle is
// on: short TTLs on the real coarse clock, a fast background sweeper, a
// fast auto-rebalance ticker, cost accounting with byte budgets, and
// OnEvict/OnExpire callbacks — while workers mix per-key and batch
// traffic, deletes and TTL re-arms. It exists to run under -race (expiry
// racing Get/SetBatch, sweeper racing Rebalance) and to check the
// callbacks always carry coherent pairs.
func TestConcurrentLifecycleStress(t *testing.T) {
	const (
		workers  = 6
		rounds   = 300
		batch    = 64
		keySpace = 4_096
		tenants  = 4
	)
	// sentinel lies outside the workers' key space. It is stored with a
	// short TTL once they finish, and the run waits for the sweeper to
	// expire it, so TTL coverage does not depend on how fast the workers
	// ran.
	const sentinel = keySpace
	var badEvict, badExpire atomic.Uint64
	sentinelExpired := make(chan struct{})
	var sentinelOnce sync.Once
	c, err := New[uint64, uint64](
		WithShards(8), WithSets(64), WithWays(8),
		WithPolicy(plru.BT), WithPartitions(tenants),
		WithDefaultTTL(2*time.Millisecond),
		WithTTLSweep(time.Millisecond),
		WithAutoRebalance(2*time.Millisecond),
		WithRebalanceHysteresis(0.01, 32),
		WithCost(func(k, v uint64) uint64 { return k%128 + 1 }),
		WithOnEvict(func(k, v uint64) {
			if k != v {
				badEvict.Add(1)
			}
		}),
		WithOnExpire(func(k, v uint64) {
			if k != v {
				badExpire.Add(1)
			}
			if k == sentinel {
				sentinelOnce.Do(func() { close(sentinelExpired) })
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetBudgets([]uint64{1 << 16, 1 << 14, 0, 0}); err != nil {
		t.Fatal(err)
	}
	var wrong atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := g % tenants
			keys := make([]uint64, batch)
			vals := make([]uint64, batch)
			oks := make([]bool, batch)
			rng := uint64(g)*0x9E3779B97F4A7C15 + 11
			for r := 0; r < rounds; r++ {
				for i := range keys {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					keys[i] = rng % keySpace
					vals[i] = keys[i]
				}
				switch r % 4 {
				case 0:
					c.SetBatch(tenant, keys, vals)
				case 1:
					c.GetBatch(tenant, keys, vals, oks)
					for i := range keys {
						if oks[i] && vals[i] != keys[i] {
							wrong.Add(1)
						}
					}
				case 2:
					for _, k := range keys[:16] {
						if v, ok := c.GetTenant(tenant, k); ok && v != k {
							wrong.Add(1)
						}
					}
					c.SetTenantTTL(tenant, keys[0], keys[0], time.Duration(rng%uint64(4*time.Millisecond)))
					c.SetTTL(keys[1], time.Millisecond)
				default:
					for _, k := range keys[:8] {
						c.Delete(k)
					}
					c.SetTenant(tenant, keys[0], keys[0])
				}
			}
		}(g)
	}
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d lookups returned a value that did not match its key", n)
	}
	if n := badEvict.Load(); n != 0 {
		t.Fatalf("%d corrupted OnEvict pairs", n)
	}
	if n := badExpire.Load(); n != 0 {
		t.Fatalf("%d corrupted OnExpire pairs", n)
	}
	if got, cap := c.Len(), c.Capacity(); got > cap {
		t.Fatalf("Len %d exceeds capacity %d", got, cap)
	}
	if err := c.SetTenantTTL(0, sentinel, sentinel, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sentinelExpired:
	case <-time.After(10 * time.Second):
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close the snapshot is quiescent and internally consistent.
	snap := c.Snapshot()
	var expir uint64
	for _, ts := range snap.Tenants {
		expir += ts.Expirations
	}
	if expir == 0 {
		t.Fatal("stress run never expired anything; TTL coverage is vacuous")
	}
}

// TestConcurrentQuotaSafety checks that quota swaps mid-flight never let a
// victim escape the tenant's current mask badly enough to corrupt slots:
// every eviction reported through OnEvict carries a coherent (key, value)
// pair even while SetQuotas races with fills.
func TestConcurrentQuotaSafety(t *testing.T) {
	var bad atomic.Uint64
	c, err := New[int, int](
		WithShards(2), WithSets(8), WithWays(8),
		WithPolicy(plru.NRU), WithPartitions(2),
		WithOnEvict(func(k, v int) {
			if k != v {
				bad.Add(1)
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30_000; i++ {
				k := (g*31 + i*7) % 1024
				c.SetTenant(g%2, k, k)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			q := []int{1 + i%7, 7 - i%7}
			if err := c.SetQuotas(q); err != nil {
				panic(err)
			}
		}
	}()
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d corrupted evictions", n)
	}
}
