package cpacache

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/plru"
)

// fakeClock is a manually advanced TTL clock for deterministic expiry
// tests (wired in through WithNow, so no background clock goroutine runs).
type fakeClock struct{ atomic.Int64 }

func newFakeClock() *fakeClock {
	c := &fakeClock{}
	c.Store(1_000_000_000) // nonzero origin: deadline 0 means "no TTL"
	return c
}

func (f *fakeClock) advance(d time.Duration) { f.Add(int64(d)) }

// ttlCache builds a single-shard cache on a fake clock with background
// sweeping disabled, so every expiry in the test is reclaimed exactly
// where the test triggers it.
func ttlCache(t *testing.T, clk *fakeClock, opts ...Option) *Cache[string, int] {
	t.Helper()
	c, err := New[string, int](append([]Option{
		WithShards(1), WithSets(4), WithWays(4), WithPolicy(plru.LRU),
		WithNow(clk.Load), WithTTLSweep(0),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestDefaultTTLExpiresLazily(t *testing.T) {
	clk := newFakeClock()
	var expired []string
	c := ttlCache(t, clk,
		WithDefaultTTL(time.Second),
		WithOnExpire(func(k string, v int) { expired = append(expired, k) }),
	)
	c.Set("a", 1)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("fresh entry: Get = (%d,%v), want (1,true)", v, ok)
	}
	clk.advance(999 * time.Millisecond)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("entry expired before its deadline")
	}
	clk.advance(2 * time.Millisecond)
	if _, ok := c.Get("a"); ok {
		t.Fatal("entry readable after its deadline")
	}
	if got := c.Len(); got != 0 {
		t.Fatalf("expired entry not reclaimed: Len = %d", got)
	}
	st := c.Stats()
	if st[0].Expirations != 1 {
		t.Fatalf("Expirations = %d, want 1", st[0].Expirations)
	}
	if st[0].Evictions != 0 {
		t.Fatalf("expiry counted as eviction: %+v", st[0])
	}
	if len(expired) != 1 || expired[0] != "a" {
		t.Fatalf("OnExpire saw %v, want [a]", expired)
	}
	// The reclaimed slot is immediately reusable.
	c.Set("b", 2)
	if v, ok := c.Get("b"); !ok || v != 2 {
		t.Fatalf("slot reuse after expiry failed: (%d,%v)", v, ok)
	}
}

func TestZeroTTLPinsEntryUnderDefault(t *testing.T) {
	clk := newFakeClock()
	c := ttlCache(t, clk, WithDefaultTTL(time.Second))
	c.SetTenantTTL(0, "pinned", 7, 0) // 0 overrides the default: no expiry
	c.Set("fleeting", 8)
	clk.advance(time.Hour)
	if v, ok := c.Get("pinned"); !ok || v != 7 {
		t.Fatalf("pinned entry expired: (%d,%v)", v, ok)
	}
	if _, ok := c.Get("fleeting"); ok {
		t.Fatal("default-TTL entry survived an hour")
	}
}

func TestNegativeTTLIsBornExpired(t *testing.T) {
	clk := newFakeClock()
	c := ttlCache(t, clk)
	c.SetTenantTTL(0, "dead", 1, -time.Nanosecond)
	if _, ok := c.Get("dead"); ok {
		t.Fatal("negative-TTL entry was readable")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after reclaiming born-expired entry", c.Len())
	}
	if st := c.Stats(); st[0].Expirations != 1 {
		t.Fatalf("Expirations = %d, want 1", st[0].Expirations)
	}
}

func TestSetTTLRearmsRemovesAndReports(t *testing.T) {
	clk := newFakeClock()
	c := ttlCache(t, clk, WithDefaultTTL(time.Second))
	c.Set("k", 1)

	if c.SetTTL("missing", time.Second) {
		t.Fatal("SetTTL on a missing key returned true")
	}
	// Re-arm to a longer TTL: survives the default deadline.
	if !c.SetTTL("k", time.Minute) {
		t.Fatal("SetTTL on a live key returned false")
	}
	clk.advance(2 * time.Second)
	if _, ok := c.Get("k"); !ok {
		t.Fatal("re-armed entry expired at its old deadline")
	}
	// Remove the deadline entirely.
	if !c.SetTTL("k", 0) {
		t.Fatal("SetTTL(0) on a live key returned false")
	}
	clk.advance(24 * time.Hour)
	if _, ok := c.Get("k"); !ok {
		t.Fatal("entry with removed deadline expired")
	}
	// Negative TTL expires it on its next touch.
	if !c.SetTTL("k", -time.Second) {
		t.Fatal("SetTTL(-1s) on a live key returned false")
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("negatively re-armed entry still readable")
	}
	// SetTTL on an entry whose TTL already lapsed reclaims and reports false.
	c.Set("gone", 2)
	clk.advance(2 * time.Second)
	if c.SetTTL("gone", time.Minute) {
		t.Fatal("SetTTL resurrected an expired entry")
	}
	if st := c.Stats(); st[0].Expirations != 2 {
		t.Fatalf("Expirations = %d, want 2", st[0].Expirations)
	}
}

func TestGetBatchNeverSurfacesExpired(t *testing.T) {
	clk := newFakeClock()
	var expired atomic.Int64
	// 48 keys into one 64-way set: no insert can ever evict, so the
	// exact-count assertions below hold for any random hash seed.
	c, err := New[uint64, uint64](
		WithShards(1), WithSets(1), WithWays(64),
		WithNow(clk.Load), WithTTLSweep(0),
		WithOnExpire(func(k, v uint64) { expired.Add(1) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 48
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	oks := make([]bool, n)
	for i := range keys {
		keys[i] = uint64(i)
		if i%2 == 0 {
			c.SetTenantTTL(0, keys[i], keys[i], time.Second)
		} else {
			c.SetTenantTTL(0, keys[i], keys[i], time.Hour)
		}
	}
	before := c.Len()
	clk.advance(2 * time.Second) // even keys lapse
	hits := c.GetBatch(0, keys, vals, oks)
	for i := range keys {
		if i%2 == 0 && oks[i] {
			t.Fatalf("expired key %d surfaced through GetBatch", keys[i])
		}
		if i%2 == 1 && (!oks[i] || vals[i] != keys[i]) {
			t.Fatalf("live key %d: (%d,%v)", keys[i], vals[i], oks[i])
		}
	}
	if hits != n/2 {
		t.Fatalf("hits = %d, want %d", hits, n/2)
	}
	if got := c.Len(); got != before-n/2 {
		t.Fatalf("Len = %d, want %d (expired reclaimed)", got, before-n/2)
	}
	if expired.Load() != n/2 {
		t.Fatalf("OnExpire ran %d times, want %d", expired.Load(), n/2)
	}
}

// TestExpiredVictimCountsAsExpiration pins the eviction-path
// classification: displacing a line whose TTL already lapsed is an
// expiration (OnExpire), not an eviction (OnEvict).
func TestExpiredVictimCountsAsExpiration(t *testing.T) {
	clk := newFakeClock()
	var evicted, expired atomic.Int64
	c, err := New[string, int](
		WithShards(1), WithSets(1), WithWays(2), WithPolicy(plru.LRU),
		WithNow(clk.Load), WithTTLSweep(0),
		WithOnEvict(func(string, int) { evicted.Add(1) }),
		WithOnExpire(func(string, int) { expired.Add(1) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTenantTTL(0, "x", 1, time.Second)
	c.SetTenantTTL(0, "y", 2, time.Second)
	clk.advance(2 * time.Second)
	c.Set("a", 3) // full set: victim selection displaces an expired line
	c.Set("b", 4)
	st := c.Stats()
	if st[0].Expirations != 2 || st[0].Evictions != 0 {
		t.Fatalf("stats %+v, want 2 expirations and 0 evictions", st[0])
	}
	if evicted.Load() != 0 || expired.Load() != 2 {
		t.Fatalf("callbacks: OnEvict %d OnExpire %d, want 0 and 2", evicted.Load(), expired.Load())
	}
	// Displacing a *live* line still routes to OnEvict.
	c.Set("c", 5)
	if evicted.Load() != 1 {
		t.Fatalf("live displacement did not reach OnEvict (%d)", evicted.Load())
	}
}

// TestUpdateOfExpiredEntrySurfacesExpiry pins the in-place-update path:
// overwriting a key whose old value already expired counts the old value
// out as an expiration instead of silently replacing it.
func TestUpdateOfExpiredEntrySurfacesExpiry(t *testing.T) {
	clk := newFakeClock()
	var expiredVals []int
	c := ttlCache(t, clk, WithOnExpire(func(k string, v int) { expiredVals = append(expiredVals, v) }))
	c.SetTenantTTL(0, "k", 1, time.Second)
	clk.advance(2 * time.Second)
	c.Set("k", 2)
	if v, ok := c.Get("k"); !ok || v != 2 {
		t.Fatalf("updated entry: (%d,%v), want (2,true)", v, ok)
	}
	if st := c.Stats(); st[0].Expirations != 1 {
		t.Fatalf("Expirations = %d, want 1", st[0].Expirations)
	}
	if len(expiredVals) != 1 || expiredVals[0] != 1 {
		t.Fatalf("OnExpire saw %v, want [1]", expiredVals)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestDeleteExpiredReportsFalse(t *testing.T) {
	clk := newFakeClock()
	c := ttlCache(t, clk)
	c.SetTenantTTL(0, "k", 1, time.Second)
	clk.advance(2 * time.Second)
	if c.Delete("k") {
		t.Fatal("Delete returned true for an expired entry")
	}
	if st := c.Stats(); st[0].Expirations != 1 {
		t.Fatalf("Expirations = %d, want 1", st[0].Expirations)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0", c.Len())
	}
}

// TestSweeperReclaimsIdleEntries checks the background sweeper reclaims
// expired entries that nothing ever touches again (the case lazy expiry
// cannot cover), under the real coarse clock.
func TestSweeperReclaimsIdleEntries(t *testing.T) {
	var expired atomic.Int64
	c, err := New[uint64, uint64](
		WithShards(2), WithSets(32), WithWays(4),
		WithDefaultTTL(5*time.Millisecond),
		WithTTLSweep(time.Millisecond),
		WithOnExpire(func(k, v uint64) { expired.Add(1) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 100
	for k := uint64(0); k < n; k++ {
		c.Set(k, k)
	}
	inserted := c.Len()
	deadline := time.Now().Add(5 * time.Second)
	for c.Len() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.Len(); got != 0 {
		t.Fatalf("sweeper left %d of %d entries after 5s", got, inserted)
	}
	if expired.Load() == 0 {
		t.Fatal("OnExpire never ran from the sweeper")
	}
	snap := c.Snapshot()
	if snap.SweepExpired == 0 {
		t.Fatal("Snapshot.SweepExpired = 0 after a sweep reclaimed entries")
	}
}

// TestLazyArmRefreshesClock pins a regression: the internal coarse clock
// is stored once at New and only starts advancing when TTLs are first
// used, so the first SetTenantTTL on an aged cache must refresh it before
// computing a deadline — otherwise any TTL shorter than the cache's age
// is born already expired (found driving the tenant-cache HTTP demo).
func TestLazyArmRefreshesClock(t *testing.T) {
	c, err := New[string, int](WithShards(1), WithSets(4), WithWays(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	time.Sleep(50 * time.Millisecond) // the New-time clock value goes stale
	before := time.Now().UnixNano()
	c.SetTenantTTL(0, "k", 1, time.Hour) // first TTL use arms the clock
	sh, set, tag := c.locate("k")
	sh.mu.Lock()
	w := c.findLocked(sh, set*c.ways, c.tagBase(set), tag, "k")
	if w < 0 {
		sh.mu.Unlock()
		t.Fatal("entry not resident")
	}
	dl := sh.deadline[set*c.ways+w]
	sh.mu.Unlock()
	if dl < before+int64(time.Hour) {
		t.Fatalf("deadline %d computed from a stale clock (want >= %d): first TTL arm did not refresh the coarse clock",
			dl, before+int64(time.Hour))
	}
}

// TestPinDoesNotArmTTLMachinery checks that defensive ttl==0 pins on a
// TTL-free cache never start the clock/sweeper goroutines or allocate
// the per-slot deadline arrays — a pin stores no deadline, so there is
// nothing for that machinery to do.
func TestPinDoesNotArmTTLMachinery(t *testing.T) {
	c, err := New[string, int](WithShards(2), WithSets(4), WithWays(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Set("k", 1)
	c.SetTenantTTL(0, "pinned", 2, 0)
	if !c.SetTTL("k", 0) {
		t.Fatal("SetTTL(0) on a live key returned false")
	}
	for i := range c.shards {
		if c.shards[i].deadline != nil {
			t.Fatal("ttl==0 pin allocated the deadline array")
		}
	}
	// A real TTL still arms on demand.
	if !c.SetTTL("k", time.Hour) {
		t.Fatal("SetTTL(1h) on a live key returned false")
	}
	for i := range c.shards {
		if c.shards[i].deadline == nil {
			t.Fatal("nonzero TTL did not arm the deadline arrays")
		}
	}
}

// TestCloseRacesLazyArm pins the Close-vs-first-TTL-use ordering: a
// SetTenantTTL arming the clock/sweeper goroutines concurrently with
// Close must neither panic the WaitGroup (Add during Wait) nor leak a
// goroutine past Close. Run under -race.
func TestCloseRacesLazyArm(t *testing.T) {
	for i := 0; i < 200; i++ {
		c, err := New[int, int](WithAutoRebalance(time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			c.SetTenantTTL(0, 1, 1, time.Minute) // first TTL use: lazy arm
		}()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		<-done
		// Close has returned: any goroutine the arm did spawn must have
		// seen the closed stop channel and exited; a second Close must
		// not find stragglers.
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	c, err := New[int, int](
		WithDefaultTTL(time.Minute),
		WithAutoRebalance(time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	c.Set(1, 1)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Data-plane operations still work after Close.
	if v, ok := c.Get(1); !ok || v != 1 {
		t.Fatalf("post-Close Get = (%d,%v)", v, ok)
	}
}

// TestAutoRebalanceShiftsQuotas is the ticker-driven version of the
// package Example: a hungry tenant and a one-key tenant start from an
// even split, and the background ticker — never a manual Rebalance call —
// moves ways to the tenant whose miss curve can use them.
func TestAutoRebalanceShiftsQuotas(t *testing.T) {
	c, err := New[string, int](
		WithShards(1), WithSets(1), WithWays(8), WithPolicy(plru.LRU),
		WithPartitions(2), WithProfileSampling(1),
		WithAutoRebalance(5*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for i := 0; i < 7; i++ {
			key := fmt.Sprintf("big-%d", i)
			if _, ok := c.GetTenant(0, key); !ok {
				c.SetTenant(0, key, i)
			}
		}
		if _, ok := c.GetTenant(1, "hot"); !ok {
			c.SetTenant(1, "hot", 0)
		}
		if q := c.Quotas(); q[0] > q[1] {
			if snap := c.Snapshot(); snap.Rebalances == 0 {
				t.Fatal("quotas changed but no rebalance was counted")
			}
			return
		}
	}
	t.Fatalf("auto-rebalance never shifted quotas from %v", c.Quotas())
}

// TestAutoRebalanceHysteresis drives the auto path directly (white box):
// a window below minSamples must not install quotas, and the skip must be
// visible in the counters and the sink.
func TestAutoRebalanceHysteresis(t *testing.T) {
	var events []RebalanceEvent
	c, err := New[string, int](
		WithShards(1), WithSets(1), WithWays(8), WithPolicy(plru.LRU),
		WithPartitions(2), WithProfileSampling(1),
		WithRebalanceHysteresis(0.05, 1_000_000), // unreachable sample floor
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
	if _, applied, err := c.rebalance(true); err != nil {
		t.Fatal(err)
	} else if applied {
		t.Fatal("auto rebalance applied below the sample floor")
	}
	if q := c.Quotas(); q[0] != 4 || q[1] != 4 {
		t.Fatalf("quotas moved despite hysteresis: %v", q)
	}
	snap := c.Snapshot()
	if snap.RebalancesSkipped != 1 || snap.Rebalances != 0 {
		t.Fatalf("counters: %d applied / %d skipped, want 0/1", snap.Rebalances, snap.RebalancesSkipped)
	}
	if len(events) != 1 || events[0].Applied || !events[0].Auto {
		t.Fatalf("sink events = %+v, want one skipped auto event", events)
	}
	// A manual Rebalance ignores hysteresis entirely.
	if _, err := c.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if q := c.Quotas(); q[0] <= q[1] {
		t.Fatalf("manual rebalance did not move ways: %v", q)
	}
	if len(events) != 2 || !events[1].Applied || events[1].Auto {
		t.Fatalf("sink events = %+v, want a second applied manual event", events)
	}
	if events[1].Old == nil || events[1].New == nil {
		t.Fatal("manual event missing Old/New quota copies")
	}
}

// TestAutoRebalanceSkipsZeroGainWindow pins the hysteresis guard on the
// all-hits case: a warm cache whose tenants fit their quotas profiles a
// window predicting zero misses either way, and an auto tick must not
// reinstall (and churn) the masks for a zero-gain proposal.
func TestAutoRebalanceSkipsZeroGainWindow(t *testing.T) {
	c, err := New[string, int](
		WithShards(1), WithSets(1), WithWays(8), WithPolicy(plru.LRU),
		WithPartitions(2), WithProfileSampling(1),
		WithRebalanceHysteresis(0.05, 64),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Warm both tenants' two-key working sets (well inside the even 4-way
	// quotas). Inserts don't feed the profile — only lookups do — so the
	// window below contains only hits (plus two profile-cold accesses per
	// tenant that no allocation can remove): zero achievable gain.
	for tn := 0; tn < 2; tn++ {
		for i := 0; i < 2; i++ {
			c.SetTenant(tn, fmt.Sprintf("t%d-%d", tn, i), i)
		}
	}
	quotas := c.Quotas()
	for round := 0; round < 100; round++ {
		for tn := 0; tn < 2; tn++ {
			for i := 0; i < 2; i++ {
				if _, ok := c.GetTenant(tn, fmt.Sprintf("t%d-%d", tn, i)); !ok {
					t.Fatal("warm key missed")
				}
			}
		}
	}
	if _, applied, err := c.rebalance(true); err != nil {
		t.Fatal(err)
	} else if applied {
		t.Fatal("auto tick applied a zero-gain proposal over an all-hits window")
	}
	if got := c.Quotas(); fmt.Sprint(got) != fmt.Sprint(quotas) {
		t.Fatalf("quotas churned from %v to %v on a zero-gain window", quotas, got)
	}
}

// TestExpiredLinePreferredOverLiveVictim pins the fill path's victim
// preference: with the set full and an expired line present, a fill
// reclaims the dead line instead of evicting a live one.
func TestExpiredLinePreferredOverLiveVictim(t *testing.T) {
	clk := newFakeClock()
	var evicted, expired atomic.Int64
	c, err := New[string, int](
		WithShards(1), WithSets(1), WithWays(2), WithPolicy(plru.LRU),
		WithNow(clk.Load), WithTTLSweep(0),
		WithOnEvict(func(string, int) { evicted.Add(1) }),
		WithOnExpire(func(string, int) { expired.Add(1) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Set("hot", 1)                          // live, no TTL
	c.SetTenantTTL(0, "tmp", 2, time.Second) // expires first
	clk.advance(2 * time.Second)             // tmp is now dead but MRU
	c.Set("new", 3)                          // full set: must reclaim tmp
	if _, ok := c.Get("hot"); !ok {
		t.Fatal("live line evicted while an expired line sat in the set")
	}
	if evicted.Load() != 0 || expired.Load() != 1 {
		t.Fatalf("OnEvict %d OnExpire %d, want 0 and 1", evicted.Load(), expired.Load())
	}
}

// TestBudgetsCapRebalance checks the bytes→ways translation: a tenant
// whose byte budget supports only 2 of 8 ways cannot be handed more at
// Rebalance, no matter how hungry its miss curve is.
func TestBudgetsCapRebalance(t *testing.T) {
	for _, pol := range []plru.Kind{plru.LRU, plru.BT} {
		t.Run(pol.String(), func(t *testing.T) {
			c, err := New[string, int](
				WithShards(1), WithSets(1), WithWays(8), WithPolicy(pol),
				WithPartitions(2), WithProfileSampling(1),
				WithCost(func(k string, v int) uint64 { return 100 }),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.SetBudgets([]uint64{200, 0}); err != nil {
				t.Fatal(err)
			}
			// Both tenants are hungry loops; uncapped MinMisses would
			// give tenant 0 several ways.
			for round := 0; round < 100; round++ {
				for t := 0; t < 2; t++ {
					for i := 0; i < 6; i++ {
						k := fmt.Sprintf("t%d-%d", t, i)
						if _, ok := c.GetTenant(t, k); !ok {
							c.SetTenant(t, k, i)
						}
					}
				}
			}
			quotas, err := c.Rebalance()
			if err != nil {
				t.Fatal(err)
			}
			// Tenant 0's resident bytes-per-way ≈ 100; a 200-byte budget
			// supports at most 2 ways.
			if quotas[0] > 2 {
				t.Fatalf("budgeted tenant got %d ways, budget supports 2 (quotas %v)", quotas[0], quotas)
			}
			if quotas[0]+quotas[1] != 8 {
				t.Fatalf("quotas %v do not cover 8 ways", quotas)
			}
			st := c.Stats()
			if st[0].Bytes == 0 || st[1].Bytes == 0 {
				t.Fatalf("cost accounting missing: %+v", st)
			}
			snap := c.Snapshot()
			if len(snap.Budgets) != 2 || snap.Budgets[0] != 200 {
				t.Fatalf("Snapshot budgets = %v", snap.Budgets)
			}
		})
	}
}

func TestSetBudgetsValidation(t *testing.T) {
	plain, err := New[string, int](WithPartitions(2), WithWays(8))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if err := plain.SetBudgets([]uint64{1, 2}); err == nil {
		t.Fatal("SetBudgets without WithCost did not error")
	}
	costed, err := New[string, int](
		WithPartitions(2), WithWays(8),
		WithCost(func(string, int) uint64 { return 1 }),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer costed.Close()
	if err := costed.SetBudgets([]uint64{1}); err == nil {
		t.Fatal("SetBudgets with wrong length did not error")
	}
	if err := costed.SetBudgets([]uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if got := costed.Budgets(); len(got) != 2 || got[1] != 2 {
		t.Fatalf("Budgets = %v", got)
	}
	if err := costed.SetBudgets(nil); err != nil {
		t.Fatal(err)
	}
	if got := costed.Budgets(); got != nil {
		t.Fatalf("cleared budgets still present: %v", got)
	}
}

// TestCostAccountingFollowsLines checks the per-tenant Bytes gauge across
// fills, updates, ownership changes, deletes and expiry.
func TestCostAccountingFollowsLines(t *testing.T) {
	clk := newFakeClock()
	c, err := New[string, int](
		WithShards(1), WithSets(1), WithWays(4), WithPolicy(plru.LRU),
		WithPartitions(2), WithProfileSampling(1),
		WithNow(clk.Load), WithTTLSweep(0),
		WithCost(func(k string, v int) uint64 { return uint64(v) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTenant(0, "a", 10)
	c.SetTenant(0, "b", 20)
	c.SetTenant(1, "c", 5)
	st := c.Stats()
	if st[0].Bytes != 30 || st[1].Bytes != 5 {
		t.Fatalf("after fills: %+v", st)
	}
	c.SetTenant(0, "a", 15) // update re-measures
	if st = c.Stats(); st[0].Bytes != 35 {
		t.Fatalf("after update: %+v", st[0])
	}
	c.SetTenant(1, "a", 1) // ownership moves to tenant 1
	if st = c.Stats(); st[0].Bytes != 20 || st[1].Bytes != 6 {
		t.Fatalf("after ownership change: %+v", st)
	}
	c.Delete("b")
	if st = c.Stats(); st[0].Bytes != 0 {
		t.Fatalf("after delete: %+v", st[0])
	}
	c.SetTenantTTL(1, "d", 9, time.Second)
	clk.advance(2 * time.Second)
	c.Get("d") // lazy expiry refunds the cost
	if st = c.Stats(); st[1].Bytes != 6 {
		t.Fatalf("after expiry: %+v", st[1])
	}
}

func TestTTLQuery(t *testing.T) {
	clk := newFakeClock()
	var expired []string
	c := ttlCache(t, clk,
		WithOnExpire(func(k string, v int) { expired = append(expired, k) }),
	)

	if _, _, present := c.TTL("missing"); present {
		t.Fatal("TTL of an absent key reports present")
	}

	c.Set("pinned", 1)
	if rem, hasTTL, present := c.TTL("pinned"); !present || hasTTL || rem != 0 {
		t.Fatalf("pinned entry: TTL = (%v,%v,%v), want (0,false,true)", rem, hasTTL, present)
	}

	c.SetTenantTTL(0, "timed", 2, 5*time.Second)
	if rem, hasTTL, present := c.TTL("timed"); !present || !hasTTL || rem != 5*time.Second {
		t.Fatalf("fresh deadline: TTL = (%v,%v,%v), want (5s,true,true)", rem, hasTTL, present)
	}
	clk.advance(2 * time.Second)
	if rem, _, _ := c.TTL("timed"); rem != 3*time.Second {
		t.Fatalf("after 2s: remaining = %v, want 3s", rem)
	}

	// A TTL probe must not refresh recency or count as an access.
	before := c.Stats()[0]
	c.TTL("timed")
	after := c.Stats()[0]
	if before.Hits != after.Hits || before.Misses != after.Misses {
		t.Fatalf("TTL query moved hit/miss counters: %+v -> %+v", before, after)
	}

	// Re-arming through SetTTL is visible to the query.
	if !c.SetTTL("timed", 10*time.Second) {
		t.Fatal("SetTTL on a live key returned false")
	}
	if rem, _, _ := c.TTL("timed"); rem != 10*time.Second {
		t.Fatalf("after re-arm: remaining = %v, want 10s", rem)
	}
	if !c.SetTTL("timed", 0) {
		t.Fatal("SetTTL removing a deadline returned false")
	}
	if rem, hasTTL, present := c.TTL("timed"); !present || hasTTL || rem != 0 {
		t.Fatalf("after unpin: TTL = (%v,%v,%v), want (0,false,true)", rem, hasTTL, present)
	}

	// A lapsed entry is reclaimed by the query itself, exactly like a
	// lookup: OnExpire fires, Len drops, present is false.
	c.SetTenantTTL(0, "lapses", 3, time.Second)
	clk.advance(2 * time.Second)
	if _, _, present := c.TTL("lapses"); present {
		t.Fatal("lapsed entry still present through TTL")
	}
	if len(expired) != 1 || expired[0] != "lapses" {
		t.Fatalf("TTL reclaim did not route to OnExpire: %v", expired)
	}
	if _, ok := c.Get("lapses"); ok {
		t.Fatal("lapsed entry readable after TTL reclaimed it")
	}
}
