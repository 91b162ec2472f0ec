package cpacache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/plru"
)

// TestTornReadStress hammers the lookup path: readers spin on a small,
// hot key space while writers continuously rewrite, delete and reinsert
// exactly those keys, maximizing the chance of a probe overlapping a
// slot rewrite. Every value is derived from its key, so a single torn
// key/value pairing is detectable; under -race the test doubles as a
// race check on the shard-lock protocol.
func TestTornReadStress(t *testing.T) {
	const (
		readers  = 4
		writers  = 2
		keySpace = 64 // tiny: every set stays contended
		seconds  = 300 * time.Millisecond
	)
	c, err := New[uint64, uint64](
		WithShards(1), WithSets(4), WithWays(16),
	)
	if err != nil {
		t.Fatal(err)
	}
	value := func(k uint64) uint64 { return k*0x9E3779B97F4A7C15 + 0xA5A5 }
	for k := uint64(0); k < keySpace; k++ {
		c.Set(k, value(k))
	}
	var stop atomic.Bool
	var torn atomic.Uint64
	var hits atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := uint64(g)*0x9E3779B97F4A7C15 + 7
			for !stop.Load() {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				k := rng % keySpace
				if v, ok := c.Get(k); ok {
					hits.Add(1)
					if v != value(k) {
						torn.Add(1)
					}
				}
			}
		}(g)
	}
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := uint64(g)*0x6C62272E07BB0142 + 3
			for !stop.Load() {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				k := rng % keySpace
				switch rng % 4 {
				case 0:
					c.Delete(k)
				default:
					c.Set(k, value(k))
				}
			}
		}(g)
	}
	time.Sleep(seconds)
	stop.Store(true)
	wg.Wait()
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d lookups returned a value not derived from its key (torn read)", n)
	}
	if hits.Load() == 0 {
		t.Fatal("stress run never hit; the lookup path was not exercised")
	}
}

// TestSweeperBackpressureSkips pins the TryLock rule: a sweep tick that
// finds a shard's mutex held skips it, surfaces the skip in the sweep
// event and the snapshot counter, and reclaims on a later tick instead.
func TestSweeperBackpressureSkips(t *testing.T) {
	clk := newFakeClock()
	var events []SweepEvent
	var expired atomic.Int64
	c, err := New[string, int](
		WithShards(1), WithSets(4), WithWays(4),
		WithNow(clk.Load), WithTTLSweep(0), // sweeps driven by hand
		WithOnExpire(func(string, int) { expired.Add(1) }),
		WithMetricsSink(MetricsSink{Sweep: func(e SweepEvent) { events = append(events, e) }}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTenantTTL(0, "a", 1, time.Second)
	clk.advance(2 * time.Second)

	c.shards[0].mu.Lock()
	exK, exV := c.sweepOnce(nil, nil)
	c.shards[0].mu.Unlock()
	if expired.Load() != 0 {
		t.Fatal("sweep reclaimed while the shard lock was held")
	}
	if len(events) != 1 || events[0].Skipped != 1 || events[0].Expired != 0 {
		t.Fatalf("sweep events = %+v, want one skip", events)
	}
	if snap := c.Snapshot(); snap.SweepSkipped != 1 {
		t.Fatalf("Snapshot.SweepSkipped = %d, want 1", snap.SweepSkipped)
	}

	// Uncontended tick reclaims what the skipped one left linked.
	_, _ = c.sweepOnce(exK, exV)
	if expired.Load() != 1 {
		t.Fatalf("follow-up sweep reclaimed %d entries, want 1", expired.Load())
	}
	if len(events) != 2 || events[1].Expired != 1 || events[1].Skipped != 0 {
		t.Fatalf("sweep events = %+v, want a clean reclaim second", events)
	}
	if snap := c.Snapshot(); snap.SweepExpired != 1 {
		t.Fatalf("Snapshot.SweepExpired = %d, want 1", snap.SweepExpired)
	}
}

// TestAutoRebalanceBackpressure pins the contended-tick rule: an auto
// rebalance tick that cannot TryLock a shard skips the whole cycle,
// leaves the profile window accumulating, and surfaces a Contended event.
func TestAutoRebalanceBackpressure(t *testing.T) {
	var events []RebalanceEvent
	c, err := New[string, int](
		WithShards(1), WithSets(1), WithWays(8), WithPolicy(plru.LRU),
		WithPartitions(2), WithProfileSampling(1),
		WithRebalanceHysteresis(0.01, 1),
		WithMetricsSink(MetricsSink{Rebalance: func(e RebalanceEvent) { events = append(events, e) }}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			k := fmt.Sprintf("big-%d", i)
			if _, ok := c.GetTenant(0, k); !ok {
				c.SetTenant(0, k, i)
			}
		}
		c.GetTenant(1, "hot")
		c.SetTenant(1, "hot", 0)
	}
	c.shards[0].mu.Lock()
	_, applied, err := c.rebalance(true)
	c.shards[0].mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if applied {
		t.Fatal("contended auto tick applied quotas")
	}
	if len(events) != 1 || !events[0].Contended || events[0].Applied || events[0].New != nil {
		t.Fatalf("events = %+v, want one contended skip", events)
	}
	if snap := c.Snapshot(); snap.RebalancesSkipped != 1 {
		t.Fatalf("RebalancesSkipped = %d, want 1", snap.RebalancesSkipped)
	}
	// The window kept accumulating: the next uncontended tick installs.
	if _, applied, err := c.rebalance(true); err != nil {
		t.Fatal(err)
	} else if !applied {
		t.Fatal("uncontended tick after a contended skip did not install")
	}
	if q := c.Quotas(); q[0] <= q[1] {
		t.Fatalf("quotas %v did not move to the hungry tenant", q)
	}
}

// TestSetTenantDefaultTTL pins the per-tenant default TTL override:
// plain Sets by the overridden tenant expire on the tenant's clock,
// other tenants keep the cache-wide default (or none), 0 clears the
// override, and negatives are rejected.
func TestSetTenantDefaultTTL(t *testing.T) {
	clk := newFakeClock()
	c, err := New[string, int](
		WithShards(1), WithSets(4), WithWays(8), WithPolicy(plru.LRU),
		WithPartitions(2),
		WithNow(clk.Load), WithTTLSweep(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetTenantDefaultTTL(0, -time.Second); err == nil {
		t.Fatal("negative tenant default TTL accepted")
	}
	if err := c.SetTenantDefaultTTL(0, time.Second); err != nil {
		t.Fatal(err)
	}
	if got := c.TenantDefaultTTL(0); got != time.Second {
		t.Fatalf("TenantDefaultTTL = %v, want 1s", got)
	}
	c.SetTenant(0, "short", 1) // tenant 0: 1s TTL applies
	c.SetTenant(1, "forever", 2)
	clk.advance(2 * time.Second)
	if _, ok := c.GetTenant(0, "short"); ok {
		t.Fatal("tenant-default TTL did not expire the entry")
	}
	if _, ok := c.GetTenant(1, "forever"); !ok {
		t.Fatal("tenant 1 inherited tenant 0's TTL override")
	}
	// Explicit TTLs still beat the tenant default.
	c.SetTenantTTL(0, "pinned", 3, 0)
	clk.advance(time.Hour)
	if _, ok := c.GetTenant(0, "pinned"); !ok {
		t.Fatal("explicit pin lost to the tenant default TTL")
	}
	// Clearing the override falls back to the cache default (none here).
	if err := c.SetTenantDefaultTTL(0, 0); err != nil {
		t.Fatal(err)
	}
	c.SetTenant(0, "eternal", 4)
	clk.advance(24 * time.Hour)
	if _, ok := c.GetTenant(0, "eternal"); !ok {
		t.Fatal("cleared override still applied a TTL")
	}
	// Expirations were counted against the inserting tenant.
	if st := c.Stats(); st[0].Expirations != 1 {
		t.Fatalf("Expirations = %d, want 1", st[0].Expirations)
	}
}

// TestTenantDefaultTTLOverCacheDefault checks precedence when both a
// cache-wide and a tenant default exist: the tenant override wins.
func TestTenantDefaultTTLOverCacheDefault(t *testing.T) {
	clk := newFakeClock()
	c, err := New[string, int](
		WithShards(1), WithSets(4), WithWays(8), WithPolicy(plru.LRU),
		WithPartitions(2), WithDefaultTTL(time.Minute),
		WithNow(clk.Load), WithTTLSweep(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetTenantDefaultTTL(1, time.Hour); err != nil {
		t.Fatal(err)
	}
	c.SetTenant(0, "cacheDefault", 1)
	c.SetTenant(1, "tenantDefault", 2)
	clk.advance(10 * time.Minute) // past the cache default, inside tenant 1's
	if _, ok := c.GetTenant(0, "cacheDefault"); ok {
		t.Fatal("cache-default entry outlived its TTL")
	}
	if _, ok := c.GetTenant(1, "tenantDefault"); !ok {
		t.Fatal("tenant override did not extend past the cache default")
	}
	clk.advance(2 * time.Hour)
	if _, ok := c.GetTenant(1, "tenantDefault"); ok {
		t.Fatal("tenant-default entry never expired")
	}
}
