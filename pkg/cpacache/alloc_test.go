//go:build !race

// Allocation guards for the hot paths. They are excluded from -race runs
// (instrumentation skews the accounting); CI runs them in a dedicated
// non-race step so alloc regressions fail fast even on a 1-CPU runner
// where throughput regressions can hide.

package cpacache

import (
	"strconv"
	"testing"
	"time"

	"repro/pkg/plru"
)

func newAllocCache(t *testing.T, tenants int) *Cache[uint64, uint64] {
	return newAllocCachePol(t, plru.BT, tenants)
}

func newAllocCachePol(t *testing.T, pol plru.Kind, tenants int) *Cache[uint64, uint64] {
	t.Helper()
	c, err := New[uint64, uint64](
		WithShards(8), WithSets(256), WithWays(8),
		WithPolicy(pol), WithPartitions(tenants),
	)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestGetHitZeroAlloc pins the warm lookup path at zero allocations.
func TestGetHitZeroAlloc(t *testing.T) {
	c := newAllocCache(t, 1)
	const keys = 1024
	for k := uint64(0); k < keys; k++ {
		c.Set(k, k)
	}
	i := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		c.Get(i % keys)
		i++
	}); n != 0 {
		t.Fatalf("GetHit allocates %v/op, want 0", n)
	}
}

// TestSetChurnZeroAlloc pins the continuously evicting insert path at zero
// allocations.
func TestSetChurnZeroAlloc(t *testing.T) {
	c := newAllocCache(t, 1)
	k := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		c.Set(k, k)
		k++
	}); n != 0 {
		t.Fatalf("SetChurn allocates %v/op, want 0", n)
	}
}

// TestAdaptivePoliciesZeroAlloc pins the warm lookup and evicting insert
// paths at zero allocations under the adaptive policies (AWRP and ARC,
// including ARC's ghost-ring probes on every fill).
func TestAdaptivePoliciesZeroAlloc(t *testing.T) {
	for _, pol := range []plru.Kind{plru.AWRP, plru.ARC} {
		t.Run(pol.String(), func(t *testing.T) {
			c := newAllocCachePol(t, pol, 1)
			const keys = 1024
			for k := uint64(0); k < keys; k++ {
				c.Set(k, k)
			}
			i := uint64(0)
			if n := testing.AllocsPerRun(1000, func() {
				c.Get(i % keys)
				i++
			}); n != 0 {
				t.Fatalf("%v GetHit allocates %v/op, want 0", pol, n)
			}
			k := uint64(1 << 40)
			if n := testing.AllocsPerRun(1000, func() {
				c.Set(k, k)
				k++
			}); n != 0 {
				t.Fatalf("%v SetChurn allocates %v/op, want 0", pol, n)
			}
		})
	}
}

// TestAutoSelectHotPathZeroAlloc pins the data plane at zero allocations
// with policy auto-selection on: the candidate fan-out, the shadow-
// directory probes on sampled sets, and the adaptive victim routing must
// all stay allocation-free.
func TestAutoSelectHotPathZeroAlloc(t *testing.T) {
	c, err := New[uint64, uint64](
		WithShards(8), WithSets(256), WithWays(8),
		WithPolicy(plru.LRU), WithPartitions(2),
		WithPolicyAutoSelect(),
		WithProfileSampling(4), // plenty of shadow probes in the mix
	)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 4096
	for k := uint64(0); k < keys; k++ {
		c.SetTenant(int(k)%2, k, k)
	}
	rng := uint64(9)
	if n := testing.AllocsPerRun(2000, func() {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		k := rng % (2 * keys)
		tenant := int(rng>>20) % 2
		if rng%8 == 0 {
			c.SetTenant(tenant, k, k)
		} else {
			c.GetTenant(tenant, k)
		}
	}); n != 0 {
		t.Fatalf("auto-select hot path allocates %v/op, want 0", n)
	}
}

// TestParallelMixZeroAlloc pins the multi-tenant get/set/delete mix (the
// per-goroutine body of BenchmarkParallelGetSet) at zero allocations.
func TestParallelMixZeroAlloc(t *testing.T) {
	c := newAllocCache(t, 4)
	rng := uint64(1)
	if n := testing.AllocsPerRun(1000, func() {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		k := rng % 32768
		tenant := int(rng>>20) % 4
		switch rng % 10 {
		case 0:
			c.SetTenant(tenant, k, k)
		case 1:
			c.Delete(k)
		default:
			c.GetTenant(tenant, k)
		}
	}); n != 0 {
		t.Fatalf("mixed hot path allocates %v/op, want 0", n)
	}
}

// TestBatchSteadyStateZeroAlloc pins GetBatch/SetBatch at zero
// allocations once the eviction path has warmed up, on a uint64 cache
// and on the daemon's Cache[string, []byte] with its WithCost
// measurement (the MGET/MSET path).
func TestBatchSteadyStateZeroAlloc(t *testing.T) {
	geometry := []Option{WithShards(8), WithSets(256), WithWays(8), WithPolicy(plru.BT), WithPartitions(2)}
	t.Run("uint64", func(t *testing.T) {
		evictions := 0
		c, err := New[uint64, uint64](append(geometry,
			WithOnEvict(func(k, v uint64) { evictions++ }))...)
		if err != nil {
			t.Fatal(err)
		}
		space := make([]uint64, 40_000)
		for i := range space {
			space[i] = uint64(i)
		}
		batchZeroAlloc(t, c, space, space, &evictions)
	})
	t.Run("daemon", func(t *testing.T) {
		evictions := 0
		c, err := New[string, []byte](append(geometry,
			WithCost(func(k string, v []byte) uint64 { return uint64(len(k) + len(v)) }),
			WithOnEvict(func(k string, v []byte) { evictions++ }))...)
		if err != nil {
			t.Fatal(err)
		}
		space := make([]string, 40_000)
		vals := make([][]byte, len(space))
		for i := range space {
			space[i] = "key:" + strconv.Itoa(i)
			vals[i] = make([]byte, 64)
		}
		batchZeroAlloc(t, c, space, vals, &evictions)
	})
}

// batchZeroAlloc cycles 64-key SetBatch/GetBatch pairs over the key
// space (4x what the 8x256x8 cache holds) and requires the steady state
// to allocate nothing while still evicting.
func batchZeroAlloc[K comparable, V any](t *testing.T, c *Cache[K, V], space []K, spaceVals []V, evictions *int) {
	const batch = 64
	keys := make([]K, batch)
	vals := make([]V, batch)
	oks := make([]bool, batch)
	k := 0
	fill := func() {
		for i := range keys {
			keys[i] = space[k%len(space)]
			vals[i] = spaceVals[k%len(space)]
			k++
		}
	}
	// Warm up: grow every pooled buffer the eviction path uses.
	for i := 0; i < 2000; i++ {
		fill()
		c.SetBatch(i%2, keys, vals)
		c.GetBatch(i%2, keys, vals, oks)
	}
	if n := testing.AllocsPerRun(200, func() {
		fill()
		c.SetBatch(0, keys, vals)
		c.GetBatch(1, keys, vals, oks)
	}); n != 0 {
		t.Fatalf("steady-state batch ops allocate %v/call-pair, want 0", n)
	}
	if *evictions == 0 {
		t.Fatal("workload never evicted; the guard did not cover the OnEvict path")
	}
}

// TestGetHitTTLZeroAlloc pins the warm lookup path at zero allocations
// with TTL enabled — every probed entry carries a deadline, so the path
// includes the per-set TTL word test and the coarse clock load.
func TestGetHitTTLZeroAlloc(t *testing.T) {
	c, err := New[uint64, uint64](
		WithShards(8), WithSets(256), WithWays(8),
		WithPolicy(plru.BT), WithDefaultTTL(time.Hour),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const keys = 1024
	for k := uint64(0); k < keys; k++ {
		c.Set(k, k)
	}
	i := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		if _, ok := c.Get(i % keys); !ok {
			t.Fatal("warm TTL entry missed")
		}
		i++
	}); n != 0 {
		t.Fatalf("GetHit with TTL allocates %v/op, want 0", n)
	}
}

// TestSetChurnTTLCostZeroAlloc pins the evicting insert path at zero
// allocations with the full lifecycle data plane on: default TTL
// (deadline store per fill) and cost accounting (cost fn + gauge update).
func TestSetChurnTTLCostZeroAlloc(t *testing.T) {
	c, err := New[uint64, uint64](
		WithShards(8), WithSets(256), WithWays(8),
		WithPolicy(plru.BT), WithDefaultTTL(time.Hour),
		WithCost(func(k, v uint64) uint64 { return 8 }),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	k := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		c.Set(k, k)
		k++
	}); n != 0 {
		t.Fatalf("SetChurn with TTL+cost allocates %v/op, want 0", n)
	}
}

// TestWheelSweepZeroAlloc pins the timing-wheel paths at zero
// allocations: inserts with TTLs link slots into buckets (intrusive
// lists, preallocated at arm time), clock advances cascade entries down
// the levels, and sweep ticks reclaim due entries into reused buffers.
func TestWheelSweepZeroAlloc(t *testing.T) {
	clk := newFakeClock()
	c, err := New[uint64, uint64](
		WithShards(2), WithSets(32), WithWays(8),
		WithPolicy(plru.BT),
		WithNow(clk.Load), WithTTLSweep(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Warm the sweep buffers through one full insert+expire cycle.
	var exK []uint64
	var exV []uint64
	for k := uint64(0); k < 512; k++ {
		c.SetTenantTTL(0, k, k, 10*time.Millisecond)
	}
	clk.advance(time.Second)
	exK, exV = c.sweepOnce(exK, exV)
	k := uint64(0)
	if n := testing.AllocsPerRun(500, func() {
		for j := 0; j < 8; j++ {
			c.SetTenantTTL(0, k%512, k, time.Duration(1+k%20)*time.Millisecond)
			k++
		}
		clk.advance(5 * time.Millisecond)
		exK, exV = c.sweepOnce(exK, exV)
	}); n != 0 {
		t.Fatalf("wheel link/advance/sweep allocates %v/op, want 0", n)
	}
}

// TestRebalanceSteadyStateAllocs asserts steady-state Rebalance stays at
// a small constant: the returned quota copy is its only allocation, the
// DP tables / curves / masks all live in control-plane scratch on the
// Cache.
func TestRebalanceSteadyStateAllocs(t *testing.T) {
	for _, pol := range []plru.Kind{plru.BT, plru.LRU} {
		c, err := New[uint64, uint64](
			WithShards(4), WithSets(64), WithWays(16),
			WithPolicy(pol), WithPartitions(4),
		)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 8192; k++ {
			c.GetTenant(int(k)%4, k)
		}
		if _, err := c.Rebalance(); err != nil { // warm the scratch
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := c.Rebalance(); err != nil {
				t.Fatal(err)
			}
		}); n > 1 {
			t.Fatalf("%v: steady-state Rebalance allocates %v/op, want <= 1 (the returned quota copy)", pol, n)
		}
	}
}

// TestHardBudgetSetAllocs pins the budget-hit insert path at zero
// allocations: every Set pushes the tenant over its hard budget, so the
// whole governor machinery runs each call — gauge checks, the pooled
// enforcement scratch, the expired→owned reclaim ladder, the buffered
// OnEvict flush — and none of it may allocate at steady state.
func TestHardBudgetSetAllocs(t *testing.T) {
	evictions := 0
	c, err := New[uint64, uint64](
		WithShards(2), WithSets(32), WithWays(8),
		WithPolicy(plru.BT), WithPartitions(2),
		WithCost(func(k, v uint64) uint64 { return 8 }),
		WithHardBudgets(), WithMaxBytes(1<<20),
		WithOnEvict(func(k, v uint64) { evictions++ }),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetBudgets([]uint64{256, 0}); err != nil { // 32 entries of 8
		t.Fatal(err)
	}
	k := uint64(0)
	// Warm up: fill to the budget and grow the pooled scratch buffers.
	for ; k < 1024; k++ {
		if err := c.SetTenant(0, k, k); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(1000, func() {
		if err := c.SetTenant(0, k, k); err != nil {
			t.Fatal(err)
		}
		k++
	}); n != 0 {
		t.Fatalf("budget-hit Set allocates %v/op, want 0", n)
	}
	if evictions == 0 {
		t.Fatal("workload never hit the budget; the guard covered nothing")
	}
}
