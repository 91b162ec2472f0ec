package cpacache

import (
	"hash/maphash"
	"testing"
	"time"

	"repro/internal/optref"
	"repro/pkg/plru"
)

// These tests grade every policy kind against the offline-optimal
// (Belady) replacement on the cache's own recorded access streams: each
// workload drives the real cache cache-aside (Get; on miss, Set) while
// recording the key stream as a demand trace with the cache's exact
// shard/set placement (white box: same hash seed), then replays it
// through internal/optref and asserts hitRate(policy)/hitRate(OPT)
// stays inside a pinned per-policy envelope.
//
// The trace uses demand (fill-on-miss) semantics, not Lookup/Store
// pairs: in a cache-aside loop every miss is immediately followed by a
// Set, so the reachable optimum is "OPT filling on its own misses over
// the same key stream". Recording the policy's actual Store points
// instead would tie OPT's fill opportunities to that policy's miss
// pattern and break the upper-bound property (a policy could then
// "beat" OPT).
//
// The bands are regression detectors, not exact values: the maphash
// seed is random per cache, so hit rates wobble run to run, and the
// bands carry that slack. OPT ignores TTL (it is an upper bound); the
// ttl workload's bands sit lower for it.

// optEnvWorkloads names the recorded workloads; optEnvelopes pins
// [lo,hi] ratio bands per workload × policy.
var optEnvWorkloads = []string{"random", "ttl", "cost", "partitioned"}

var optEnvelopes = map[string]map[plru.Kind][2]float64{
	// Pinned from repeated local runs (see EXPERIMENTS.md): centers vary
	// by well under ±0.01 across maphash seeds; lower bounds leave ≥0.04
	// slack. The 1.005 ceilings are the OPT-supremacy check — a policy
	// "beating" OPT means the trace capture or replay broke. The cost
	// workload is skewed (hot/cold), where AWRP's frequency weighting and
	// ARC's two-tier structure measurably beat the recency-only policies;
	// their higher floors pin that advantage.
	"random": {
		plru.LRU:    {0.55, 1.005},
		plru.NRU:    {0.55, 1.005},
		plru.BT:     {0.55, 1.005},
		plru.Random: {0.55, 1.005},
		plru.AWRP:   {0.55, 1.005},
		plru.ARC:    {0.55, 1.005},
	},
	"ttl": {
		plru.LRU:    {0.54, 1.005},
		plru.NRU:    {0.54, 1.005},
		plru.BT:     {0.54, 1.005},
		plru.Random: {0.54, 1.005},
		plru.AWRP:   {0.54, 1.005},
		plru.ARC:    {0.54, 1.005},
	},
	"cost": {
		plru.LRU:    {0.60, 1.005},
		plru.NRU:    {0.58, 1.005},
		plru.BT:     {0.59, 1.005},
		plru.Random: {0.55, 1.005},
		plru.AWRP:   {0.78, 1.005},
		plru.ARC:    {0.68, 1.005},
	},
	"partitioned": {
		plru.LRU:    {0.59, 1.005},
		plru.NRU:    {0.59, 1.005},
		plru.BT:     {0.59, 1.005},
		plru.Random: {0.59, 1.005},
		plru.AWRP:   {0.59, 1.005},
		plru.ARC:    {0.59, 1.005},
	},
}

// runOptEnvWorkload drives one (workload, policy) cell and returns the
// cache's lookup hit rate and OPT's on the identical recorded trace.
func runOptEnvWorkload(t *testing.T, kind plru.Kind, wl string) (cacheHitRate, optHitRate float64) {
	t.Helper()
	const shards, sets, ways = 2, 16, 8
	tenants := 1
	opts := []Option{
		WithShards(shards), WithSets(sets), WithWays(ways),
		WithPolicy(kind), WithSeed(4242),
	}
	var clk *fakeClock
	switch wl {
	case "ttl":
		clk = newFakeClock()
		opts = append(opts, WithNow(clk.Load), WithTTLSweep(0),
			WithDefaultTTL(4000*time.Nanosecond))
	case "cost":
		opts = append(opts, WithCost(func(k, v uint64) uint64 { return k%5 + 1 }))
	case "partitioned":
		tenants = 2
		opts = append(opts, WithPartitions(2))
	}
	c, err := New[uint64, uint64](opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var masks []plru.WayMask
	if wl == "partitioned" {
		if err := c.SetQuotas([]int{5, 3}); err != nil {
			t.Fatal(err)
		}
		masks = append(masks, c.shards[0].masks...)
	}

	tr := &optref.Trace{}
	optSetOf := func(key uint64) int {
		d, set := c.place(maphash.Comparable(c.seed, key))
		return d*c.sets + set
	}

	rng := uint64(0x0b7_e27) ^ uint64(kind)<<32 | 1
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	capacity := uint64(shards * sets * ways)
	keyOf := func() uint64 {
		if wl == "cost" {
			// Skewed: half the lookups hammer a hot set smaller than the
			// cache, the rest roam a cold space 4x capacity.
			if next()%2 == 0 {
				return next() % (capacity / 2)
			}
			return capacity/2 + next()%(capacity*4)
		}
		// Uniform over 2.5x capacity: real reuse under real pressure.
		return next() % (capacity * 5 / 2)
	}

	const steps = 60_000
	var lookups, hits uint64
	for i := 0; i < steps; i++ {
		if clk != nil && i%16 == 0 {
			clk.advance(time.Duration(next() % 40))
		}
		tenant := 0
		if tenants > 1 {
			tenant = int(next() % uint64(tenants))
		}
		key := keyOf()
		tr.Access(tenant, optSetOf(key), key)
		_, ok := c.GetTenant(tenant, key)
		lookups++
		if ok {
			hits++
		} else {
			c.SetTenant(tenant, key, key*3)
		}
	}

	opt, err := optref.Replay(optref.Config{
		Sets: shards * sets, Ways: ways, Cores: tenants, Masks: masks,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	return float64(hits) / float64(lookups), opt.HitRate()
}

// TestOptCompetitiveEnvelopes replays every policy × workload cell
// against OPT and pins the hit-rate ratio inside its envelope. A policy
// regression (or an accidental improvement worth re-pinning) trips the
// band; beating OPT on a TTL-free trace trips the upper bound and means
// the trace capture or the replay itself broke.
func TestOptCompetitiveEnvelopes(t *testing.T) {
	if testing.Short() {
		t.Skip("60k-step replays per cell")
	}
	for _, wl := range optEnvWorkloads {
		for _, kind := range plru.Kinds() {
			t.Run(wl+"/"+kind.String(), func(t *testing.T) {
				env, ok := optEnvelopes[wl][kind]
				if !ok {
					t.Fatalf("no envelope pinned for %s/%v — add one (kind-coverage contract)", wl, kind)
				}
				cacheHR, optHR := runOptEnvWorkload(t, kind, wl)
				if optHR <= 0 {
					t.Fatalf("OPT hit rate %.4f — vacuous workload", optHR)
				}
				ratio := cacheHR / optHR
				t.Logf("%s/%v: cache %.4f OPT %.4f ratio %.4f (band [%.2f,%.3f])",
					wl, kind, cacheHR, optHR, ratio, env[0], env[1])
				if ratio < env[0] || ratio > env[1] {
					t.Errorf("ratio %.4f outside envelope [%.2f,%.3f] (cache %.4f, OPT %.4f)",
						ratio, env[0], env[1], cacheHR, optHR)
				}
			})
		}
	}
}
