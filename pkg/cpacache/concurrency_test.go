package cpacache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/plru"
)

// TestSeqlockTornReadStress hammers the optimistic read path: readers
// spin on a small, hot key space while writers continuously rewrite,
// delete and reinsert exactly those keys, maximizing the chance of a
// probe overlapping a slot rewrite. Every value is derived from its key,
// so a single torn key/value pairing is detectable. In regular builds
// this exercises the seqlock retry/validation logic; under -race the
// lookups take the locked fallback and the test doubles as a race check
// on the writer protocol.
func TestSeqlockTornReadStress(t *testing.T) {
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
		t.Fatalf("%d lookups returned a value not derived from its key (torn seqlock read)", n)
	}
	if hits.Load() == 0 {
		t.Fatal("stress run never hit; the seqlock path was not exercised")
	}
}

// TestSeqlockFallbacks pins the conditions that must route a lookup to
// the locked path: pointerful key or value types never set lockFree, and
// neither does a race build.
func TestSeqlockFallbacks(t *testing.T) {
	ptr, err := New[string, int]()
	if err != nil {
		t.Fatal(err)
	}
	if ptr.lockFree {
		t.Fatal("string-keyed cache enabled the lock-free read path")
	}
	type flat struct{ A, B uint64 }
	flatC, err := New[flat, [3]int32]()
	if err != nil {
		t.Fatal(err)
	}
	if flatC.lockFree != !raceEnabled {
		t.Fatalf("pointer-free struct cache lockFree = %v, want %v", flatC.lockFree, !raceEnabled)
	}
}

// TestTouchRingOnlyOnLockFreePlane pins that a shard carries a touch ring
// exactly when the lock-free read path, the ring's only producer, is on:
// the daemon's Cache[string, []byte] has neither, and a pointer-free
// cache has both outside race builds.
func TestTouchRingOnlyOnLockFreePlane(t *testing.T) {
	daemon, err := New[string, []byte](WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	flat, err := New[uint64, uint64](WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if daemon.lockFree {
		t.Fatal("Cache[string, []byte] enabled the lock-free read path")
	}
	if flat.lockFree != !raceEnabled {
		t.Fatalf("Cache[uint64, uint64] lockFree = %v, want %v", flat.lockFree, !raceEnabled)
	}
	for i := range daemon.shards {
		if daemon.shards[i].touchRing != nil {
			t.Fatalf("Cache[string, []byte] shard %d allocated a touch ring nothing writes", i)
		}
		if got, want := flat.shards[i].touchRing != nil, flat.lockFree; got != want {
			t.Fatalf("Cache[uint64, uint64] shard %d has ring %v, lock-free plane %v", i, got, want)
		}
	}
}

// TestDeferredMatchesImmediateExactly pins the drain-order property the
// deferred plane is built on: in a single-threaded execution whose touch
// ring never overflows, the deferred configuration produces bit-for-bit
// the same eviction stream, stats and contents as the fully locked plane.
func TestDeferredMatchesImmediateExactly(t *testing.T) {
	run := func(locked bool) (*Cache[uint64, uint64], *[]uint64) {
		var evicted []uint64
		c, err := New[uint64, uint64](
			WithShards(2), WithSets(8), WithWays(8),
			WithPolicy(plru.LRU), WithPartitions(2), WithSeed(42),
			WithOnEvict(func(k, v uint64) { evicted = append(evicted, k) }),
		)
		if err != nil {
			t.Fatal(err)
		}
		applyMode(c, locked)
		return c, &evicted
	}
	def, defEv := run(false)
	imm, immEv := run(true)
	imm.seed = def.seed // identical placement (white box)

	rng := uint64(12345)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < 50_000; i++ {
		op, tenant, key := next()%10, int(next()%2), next()%256
		switch {
		case op < 6:
			v1, ok1 := def.GetTenant(tenant, key)
			v2, ok2 := imm.GetTenant(tenant, key)
			if ok1 != ok2 || v1 != v2 {
				t.Fatalf("step %d: deferred Get=(%d,%v) immediate Get=(%d,%v)", i, v1, ok1, v2, ok2)
			}
		case op < 9:
			def.SetTenant(tenant, key, key*7)
			imm.SetTenant(tenant, key, key*7)
		default:
			if d, m := def.Delete(key), imm.Delete(key); d != m {
				t.Fatalf("step %d: deferred Delete=%v immediate Delete=%v", i, d, m)
			}
		}
	}
	if len(*defEv) != len(*immEv) {
		t.Fatalf("eviction streams differ in length: deferred %d vs immediate %d", len(*defEv), len(*immEv))
	}
	for i := range *defEv {
		if (*defEv)[i] != (*immEv)[i] {
			t.Fatalf("eviction %d: deferred key %d vs immediate key %d", i, (*defEv)[i], (*immEv)[i])
		}
	}
	s1, s2 := def.Stats(), imm.Stats()
	for tn := range s1 {
		if s1[tn] != s2[tn] {
			t.Fatalf("tenant %d stats: deferred %+v vs immediate %+v", tn, s1[tn], s2[tn])
		}
	}
}

// TestDeferredDivergenceBounded is the lossy regime: a deliberately tiny
// touch ring (8 records) under a read-heavy loop drops most recency
// updates, which is exactly what the deferred design claims pseudo-LRU
// tolerates. The hit counts of the deferred and immediate configurations
// over the same single-threaded workload must stay within a few percent
// of each other — recency loss may shuffle evictions, not correctness.
func TestDeferredDivergenceBounded(t *testing.T) {
	for _, pol := range []plru.Kind{plru.BT, plru.LRU, plru.NRU} {
		t.Run(pol.String(), func(t *testing.T) {
			run := func(setPlane func(*Cache[uint64, uint64])) uint64 {
				c, err := New[uint64, uint64](
					WithShards(1), WithSets(16), WithWays(8),
					WithPolicy(pol), WithSeed(9),
				)
				if err != nil {
					t.Fatal(err)
				}
				setPlane(c)
				rng := uint64(777)
				next := func() uint64 {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					return rng
				}
				// Working set ~1.5x capacity with a hot head: misses are
				// common enough that eviction quality shows up in the
				// hit rate.
				const keySpace = 192
				for i := 0; i < 200_000; i++ {
					k := next() % keySpace
					if next()%4 == 0 {
						k %= 32 // hot head
					}
					if _, ok := c.Get(k); !ok {
						c.Set(k, k)
					}
				}
				st := c.Stats()
				return st[0].Hits
			}
			lossy := run(func(c *Cache[uint64, uint64]) { c.resizeTouchRing(8) })
			exact := run((*Cache[uint64, uint64]).useLockedPlane)
			lo, hi := lossy, exact
			if lo > hi {
				lo, hi = hi, lo
			}
			if float64(hi-lo) > 0.10*float64(hi) {
				t.Fatalf("hit counts diverged beyond 10%%: lossy-deferred %d vs immediate %d", lossy, exact)
			}
		})
	}
}

// FuzzTouchRing drives arbitrary interleavings of pushes (with arbitrary
// set/way/tenant payloads), overflow bursts and drains against one
// shard's ring, checking the drain never panics, never applies an
// out-of-range record to the policy, and never leaves the ring
// unbounded. The ring is tiny so overflow sampling is constantly active.
func FuzzTouchRing(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0xFF, 0x00, 0x7F})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := New[uint64, uint64](
			WithShards(1), WithSets(8), WithWays(4), WithPolicy(plru.LRU),
		)
		if err != nil {
			t.Fatal(err)
		}
		c.resizeTouchRing(8)
		sh := &c.shards[0]
		pushed, drained := 0, 0
		for i := 0; i < len(data); i++ {
			b := data[i]
			switch b % 4 {
			case 0: // drain under the lock
				sh.mu.Lock()
				c.drainTouches(sh)
				sh.mu.Unlock()
				drained++
			case 1: // overflow burst: more pushes than the ring holds
				for j := 0; j < 3*len(sh.touchRing); j++ {
					sh.pushTouch(j%c.sets, j%c.ways, 0)
					pushed++
				}
			case 2: // raw ring word: simulate a torn/garbage record
				sh.touchRing[int(b>>2)&int(sh.touchMask)] = uint64(b) * 0x0101010101010101
			default: // ordinary push with fuzz-chosen coordinates
				set := int(b>>2) % c.sets
				way := int(b>>5) % c.ways
				sh.pushTouch(set, way, 0)
				pushed++
			}
		}
		sh.mu.Lock()
		c.drainTouches(sh)
		if h := sh.touchHead; h != sh.touchDrained {
			t.Fatalf("drain left the ring cursor behind: head %d drained %d", h, sh.touchDrained)
		}
		sh.mu.Unlock()
		// The policy must still be functional: victims stay in range for
		// every set after all the recency noise.
		for set := 0; set < c.sets; set++ {
			if v := sh.pol.Victim(set, 0, plru.Full(c.ways)); v < 0 || v >= c.ways {
				t.Fatalf("victim %d out of range after fuzzed touches", v)
			}
		}
		_ = pushed
		_ = drained
	})
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
