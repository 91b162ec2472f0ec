package cpacache

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/pkg/cpapart"
	"repro/pkg/plru"
)

// single returns a one-shard, one-set cache so tests control exactly which
// lines compete for ways, regardless of the per-cache hash seed.
func single(t *testing.T, ways, tenants int, policy plru.Kind, opts ...Option) *Cache[string, int] {
	t.Helper()
	c, err := New[string, int](append([]Option{
		WithShards(1), WithSets(1), WithWays(ways),
		WithPolicy(policy), WithPartitions(tenants), WithProfileSampling(1),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGetSetDeleteRoundTrip(t *testing.T) {
	c, err := New[string, int](WithShards(4), WithSets(32), WithWays(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Set("a", 1)
	c.Set("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d,%v", v, ok)
	}
	c.Set("a", 10) // update in place
	if v, _ := c.Get("a"); v != 10 {
		t.Fatalf("update lost: %d", v)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if !c.Delete("a") || c.Delete("a") {
		t.Fatal("Delete semantics wrong")
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("deleted key still present")
	}
	if c.Len() != 1 {
		t.Fatalf("Len after delete = %d, want 1", c.Len())
	}
}

func TestCapacityAndAccessors(t *testing.T) {
	c, err := New[int, int](WithShards(2), WithSets(8), WithWays(4), WithPolicy(plru.NRU), WithPartitions(2))
	if err != nil {
		t.Fatal(err)
	}
	if c.Capacity() != 2*8*4 || c.Shards() != 2 || c.Ways() != 4 || c.Tenants() != 2 || c.Policy() != plru.NRU {
		t.Fatalf("accessors wrong: cap=%d shards=%d ways=%d tenants=%d pol=%v",
			c.Capacity(), c.Shards(), c.Ways(), c.Tenants(), c.Policy())
	}
	if q := c.Quotas(); len(q) != 2 || q[0] != 2 || q[1] != 2 {
		t.Fatalf("initial quotas = %v, want even split", q)
	}
}

func TestEvictionAndOnEvict(t *testing.T) {
	var evicted []string
	c, err := New[string, int](
		WithShards(1), WithSets(1), WithWays(2), WithPolicy(plru.LRU),
		WithOnEvict(func(k string, v int) { evicted = append(evicted, k) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	c.Set("a", 1)
	c.Set("b", 2)
	c.Get("a") // make "b" the LRU line
	c.Set("c", 3)
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted = %v, want [b]", evicted)
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently used line evicted")
	}
	c.Delete("a")
	if len(evicted) != 1 {
		t.Fatal("Delete must not fire OnEvict")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestOnEvictTypeMismatch(t *testing.T) {
	_, err := New[string, int](WithOnEvict(func(k string, v string) {}))
	if err == nil || !strings.Contains(err.Error(), "WithOnEvict") {
		t.Fatalf("err = %v, want type-mismatch error", err)
	}
}

func TestBadOptions(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"shards not pow2", []Option{WithShards(3)}},
		{"zero sets", []Option{WithSets(0)}},
		{"too many sets", []Option{WithSets(maxSets + 1)}},
		{"ways too big", []Option{WithWays(plru.MaxWays + 1)}},
		{"BT odd ways", []Option{WithWays(12), WithPolicy(plru.BT)}},
		{"tenants exceed ways", []Option{WithWays(4), WithPartitions(5)}},
		{"bad sampling", []Option{WithProfileSampling(0)}},
		// Out-of-range kinds used to build a silent Random cache.
		{"negative policy", []Option{WithPolicy(plru.Kind(-1))}},
		{"unknown auto-select candidate", []Option{WithPolicyAutoSelect(plru.LRU, plru.Kind(99))}},
		{"unknown auto-select base", []Option{WithPolicy(plru.Kind(6)), WithPolicyAutoSelect()}},
	}
	for _, tc := range cases {
		if _, err := New[int, int](tc.opts...); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	if _, err := New[int, int](WithPolicy(plru.Kind(99))); err == nil || !strings.Contains(err.Error(), "unknown policy Kind(99)") {
		t.Errorf("WithPolicy(Kind(99)): error %v does not name the kind", err)
	}
}

// TestQuotaEnforcement pins the paper's core guarantee, transplanted to
// software: once partitions are installed, a tenant's fills only displace
// lines inside its own mask, so another tenant's resident lines are
// untouchable no matter how hard the first tenant churns.
func TestQuotaEnforcement(t *testing.T) {
	for _, pol := range []plru.Kind{plru.LRU, plru.NRU, plru.BT, plru.Random} {
		t.Run(pol.String(), func(t *testing.T) {
			c := single(t, 8, 2, pol)
			for i := 0; i < 4; i++ { // tenant 0 fills exactly its quota
				c.SetTenant(0, fmt.Sprintf("t0-%d", i), i)
			}
			for i := 0; i < 1000; i++ { // tenant 1 churns far past its quota
				c.SetTenant(1, fmt.Sprintf("t1-%d", i), i)
			}
			for i := 0; i < 4; i++ {
				if _, ok := c.GetTenant(0, fmt.Sprintf("t0-%d", i)); !ok {
					t.Fatalf("tenant 0 line %d displaced by tenant 1 churn", i)
				}
			}
			st := c.Stats()
			if st[0].Evictions != 0 {
				t.Fatalf("tenant 0 suffered %d evictions under partitioning", st[0].Evictions)
			}
		})
	}
}

func TestSetQuotasValidation(t *testing.T) {
	c := single(t, 8, 2, plru.LRU)
	for _, bad := range [][]int{{8, 0}, {4, 2}, {4, 4, 0}, {9, -1}} {
		if err := c.SetQuotas(bad); err == nil {
			t.Errorf("SetQuotas(%v) accepted", bad)
		}
	}
	if err := c.SetQuotas([]int{6, 2}); err != nil {
		t.Fatalf("valid quotas rejected: %v", err)
	}
	if q := c.Quotas(); q[0] != 6 || q[1] != 2 {
		t.Fatalf("Quotas = %v", q)
	}
}

// TestSetQuotasBTPowersOfTwoUseBuddyBlocks pins the one non-contiguous
// layout: under BT, all-power-of-two quotas sit on aligned buddy blocks.
// For [1 4 2 1] on 8 ways tenant 1 gets [0,4), which keeps 2 protected
// ways, where the contiguous [1,5) keeps none (pkg/plru's
// TestBTProtectionUnderContiguousMasks). Other policies, and BT quotas
// that are not all powers of two, stay contiguous.
func TestSetQuotasBTPowersOfTwoUseBuddyBlocks(t *testing.T) {
	span := func(lo, hi int) plru.WayMask { return plru.Full(hi) &^ plru.Full(lo) }
	for _, tc := range []struct {
		pol    plru.Kind
		quotas []int
		want   []plru.WayMask
	}{
		{plru.BT, []int{1, 4, 2, 1}, []plru.WayMask{span(6, 7), span(0, 4), span(4, 6), span(7, 8)}},
		{plru.LRU, []int{1, 4, 2, 1}, []plru.WayMask{span(0, 1), span(1, 5), span(5, 7), span(7, 8)}},
		{plru.BT, []int{1, 3, 3, 1}, []plru.WayMask{span(0, 1), span(1, 4), span(4, 7), span(7, 8)}},
	} {
		c := single(t, 8, 4, tc.pol)
		if err := c.SetQuotas(tc.quotas); err != nil {
			t.Fatal(err)
		}
		if got := c.shards[0].masks; !slices.Equal(got, tc.want) {
			t.Errorf("%v %v: masks %v, want %v", tc.pol, tc.quotas, got, tc.want)
		}
	}
}

func TestTenantOutOfRangePanics(t *testing.T) {
	c := single(t, 4, 2, plru.LRU)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range tenant")
		}
	}()
	c.GetTenant(2, "x")
}

// TestMissCurvesShape checks the profiled curves are non-increasing in
// ways and anchored at the access count, as the cpapart allocators require.
func TestMissCurvesShape(t *testing.T) {
	c := single(t, 8, 2, plru.LRU)
	for round := 0; round < 50; round++ {
		for i := 0; i < 6; i++ {
			c.GetTenant(0, fmt.Sprintf("k%d", i))
		}
		c.GetTenant(1, "solo")
	}
	curves := c.MissCurves()
	if curves[0][0] != 300 || curves[1][0] != 50 {
		t.Fatalf("curve[0] anchors = %d,%d; want access counts 300,50", curves[0][0], curves[1][0])
	}
	for tn, cu := range curves {
		for w := 1; w < len(cu); w++ {
			if cu[w] > cu[w-1] {
				t.Fatalf("tenant %d curve increases at %d: %v", tn, w, cu)
			}
		}
	}
	// Tenant 0 cycles 6 keys: with >= 6 ways its steady state has only the
	// 6 cold misses; tenant 1 needs one way for its single key.
	if curves[0][6] != 6 {
		t.Fatalf("tenant 0 misses at 6 ways = %d, want 6 cold", curves[0][6])
	}
	if curves[1][1] != 1 {
		t.Fatalf("tenant 1 misses at 1 way = %d, want 1 cold", curves[1][1])
	}
}

// TestRebalanceShiftsQuotas drives one cache-hungry and one tiny tenant
// and checks Rebalance moves ways toward the hungry one (MinMisses on the
// observed curves), then that the installed quotas change hit rates.
func TestRebalanceShiftsQuotas(t *testing.T) {
	c := single(t, 8, 2, plru.LRU)
	for round := 0; round < 100; round++ {
		for i := 0; i < 7; i++ {
			key := fmt.Sprintf("big%d", i)
			if _, ok := c.GetTenant(0, key); !ok {
				c.SetTenant(0, key, i)
			}
		}
		if _, ok := c.GetTenant(1, "small"); !ok {
			c.SetTenant(1, "small", 0)
		}
	}
	quotas, err := c.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if quotas[0] != 7 || quotas[1] != 1 {
		t.Fatalf("Rebalance quotas = %v, want [7 1]", quotas)
	}
	// After rebalance the hungry tenant's 7-key loop fits: steady-state
	// hit rate goes to 1 once warm.
	for i := 0; i < 7; i++ {
		c.SetTenant(0, fmt.Sprintf("big%d", i), i)
	}
	misses := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			if _, ok := c.GetTenant(0, fmt.Sprintf("big%d", i)); !ok {
				misses++
				c.SetTenant(0, fmt.Sprintf("big%d", i), i)
			}
		}
	}
	if misses != 0 {
		t.Fatalf("hungry tenant still misses %d times after rebalance to %v", misses, quotas)
	}
}

// TestRebalanceBTMatchesMinMisses checks that Rebalance under BT runs the
// same allocator as every other policy: a 12-key loop against a 1-key
// loop gets exactly MinMisses' answer over the observed curves, not the
// [8 8] that power-of-two shares would force on two tenants.
func TestRebalanceBTMatchesMinMisses(t *testing.T) {
	c := single(t, 16, 2, plru.BT)
	for round := 0; round < 60; round++ {
		for i := 0; i < 12; i++ {
			key := fmt.Sprintf("a%d", i)
			if _, ok := c.GetTenant(0, key); !ok {
				c.SetTenant(0, key, i)
			}
		}
		if _, ok := c.GetTenant(1, "b0"); !ok {
			c.SetTenant(1, "b0", 0)
		}
	}
	want := cpapart.MinMisses{}.Allocate(c.MissCurves(), 16)
	quotas, err := c.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(quotas, want) {
		t.Fatalf("Rebalance quotas = %v, want MinMisses %v", quotas, want)
	}
	if quotas[0] < 12 {
		t.Fatalf("looping tenant got %d ways, its 12 keys need 12 (quotas %v)", quotas[0], quotas)
	}
}

func TestStatsCounts(t *testing.T) {
	c := single(t, 4, 1, plru.BT)
	c.Set("a", 1)
	c.Get("a")
	c.Get("a")
	c.Get("missing")
	st := c.Stats()
	if st[0].Hits != 2 || st[0].Misses != 1 {
		t.Fatalf("stats = %+v", st[0])
	}
	if hr := st[0].HitRate(); hr < 0.66 || hr > 0.67 {
		t.Fatalf("HitRate = %v", hr)
	}
}

func TestStructKeysAndValues(t *testing.T) {
	type key struct {
		Tenant string
		ID     uint64
	}
	c, err := New[key, []byte](WithShards(2), WithSets(16), WithWays(4))
	if err != nil {
		t.Fatal(err)
	}
	k := key{"acme", 7}
	c.Set(k, []byte("payload"))
	if v, ok := c.Get(k); !ok || string(v) != "payload" {
		t.Fatalf("struct key round trip failed: %q %v", v, ok)
	}
	if _, ok := c.Get(key{"acme", 8}); ok {
		t.Fatal("distinct struct key hit")
	}
}
