package cpacache

import (
	"fmt"
	"hash/maphash"
	"testing"
	"time"

	"repro/pkg/plru"
)

// refModel is a reference implementation of the cache's exact semantics
// built on linear full-key scans over (keys, owner) slots — the
// pre-tag-acceleration probe. It shares the real cache's hash seed and
// policy seeds, so a random workload driven through both must produce
// identical hits, misses, victim choices, eviction streams and final
// contents; any divergence is a bug in the tag fast path.
type refModel[K comparable, V any] struct {
	c       *Cache[K, V] // geometry + hash source only
	pols    []plru.Policy
	keys    [][]K
	vals    [][]V
	owner   [][]int16
	dl      [][]int64 // expiry deadline per slot, 0 = none
	cost    [][]uint64
	masks   []plru.WayMask
	stats   []TenantStats
	live    int
	evicts  []K // live-eviction stream, in order
	expires []K // expiration stream, in order

	now    func() int64      // nil = TTL semantics never triggered
	costFn func(K, V) uint64 // nil = cost accounting off

	// Memory-governor mirror (governor_diff_test.go): the hard limits the
	// model enforces and its copy of the cache's global byte gauge.
	budgets     []uint64
	maxBytes    uint64
	hardBudgets bool
	totalBytes  uint64
}

func newRefModel[K comparable, V any](c *Cache[K, V], kind plru.Kind, polSeed uint64) *refModel[K, V] {
	m := &refModel[K, V]{c: c}
	n := len(c.shards)
	m.pols = make([]plru.Policy, n)
	m.keys = make([][]K, n)
	m.vals = make([][]V, n)
	m.owner = make([][]int16, n)
	m.dl = make([][]int64, n)
	m.cost = make([][]uint64, n)
	for i := 0; i < n; i++ {
		m.pols[i] = plru.New(kind, c.sets, c.ways, c.tenants, polSeed+uint64(i))
		m.keys[i] = make([]K, c.sets*c.ways)
		m.vals[i] = make([]V, c.sets*c.ways)
		m.owner[i] = make([]int16, c.sets*c.ways)
		m.dl[i] = make([]int64, c.sets*c.ways)
		m.cost[i] = make([]uint64, c.sets*c.ways)
		for j := range m.owner[i] {
			m.owner[i][j] = -1
		}
	}
	m.stats = make([]TenantStats, c.tenants)
	m.syncMasks()
	return m
}

// syncMasks copies the cache's currently installed masks into the model
// (mask computation is cpapart's job, not what this test differentiates).
func (m *refModel[K, V]) syncMasks() {
	m.masks = append(m.masks[:0], m.c.shards[0].masks...)
	for _, p := range m.pols {
		p.SetPartition(m.masks)
	}
}

func (m *refModel[K, V]) locate(key K) (int, int) {
	return m.c.place(maphash.Comparable(m.c.seed, key))
}

// expired reports whether the occupied slot's TTL has lapsed.
func (m *refModel[K, V]) expired(si, slot int) bool {
	return m.now != nil && m.dl[si][slot] != 0 && m.dl[si][slot] <= m.now()
}

// clearSlot mirrors clearSlotLocked: empty the slot, refund its cost and
// invalidate its recency.
func (m *refModel[K, V]) clearSlot(si, set, w int) {
	base := set * m.c.ways
	var zeroK K
	var zeroV V
	if m.costFn != nil {
		m.stats[m.owner[si][base+w]].Bytes -= m.cost[si][base+w]
		m.totalBytes -= m.cost[si][base+w]
		m.cost[si][base+w] = 0
	}
	m.keys[si][base+w] = zeroK
	m.vals[si][base+w] = zeroV
	m.owner[si][base+w] = -1
	m.dl[si][base+w] = 0
	m.pols[si].Invalidate(set, w)
	m.live--
}

// expire mirrors expireLocked: reclaim an expired slot, counting the
// expiration against its owner.
func (m *refModel[K, V]) expire(si, set, w int) {
	base := set * m.c.ways
	m.stats[m.owner[si][base+w]].Expirations++
	m.expires = append(m.expires, m.keys[si][base+w])
	m.clearSlot(si, set, w)
}

func (m *refModel[K, V]) get(tenant int, key K) (V, bool) {
	si, set := m.locate(key)
	base := set * m.c.ways
	for w := 0; w < m.c.ways; w++ {
		if m.owner[si][base+w] >= 0 && m.keys[si][base+w] == key {
			if m.expired(si, base+w) {
				m.expire(si, set, w)
				m.stats[tenant].Misses++
				var zero V
				return zero, false
			}
			m.stats[tenant].Hits++
			m.pols[si].Touch(set, w, tenant)
			return m.vals[si][base+w], true
		}
	}
	m.stats[tenant].Misses++
	var zero V
	return zero, false
}

func (m *refModel[K, V]) set(tenant int, key K, value V) {
	m.setDL(tenant, key, value, 0)
}

// setDL mirrors setLocked with an explicit deadline (0 = none), returning
// the shard, set and way the line landed in (for budget enforcement).
func (m *refModel[K, V]) setDL(tenant int, key K, value V, dl int64) (int, int, int) {
	si, set := m.locate(key)
	tag := tagOf(maphash.Comparable(m.c.seed, key))
	base := set * m.c.ways
	way := -1
	for w := 0; w < m.c.ways; w++ {
		if m.owner[si][base+w] >= 0 && m.keys[si][base+w] == key {
			way = w
			break
		}
	}
	update := way >= 0
	if update {
		// In-place update: an expired old value surfaces as an expiration.
		if m.expired(si, base+way) {
			m.stats[m.owner[si][base+way]].Expirations++
			m.expires = append(m.expires, m.keys[si][base+way])
		}
		if m.costFn != nil {
			m.stats[m.owner[si][base+way]].Bytes -= m.cost[si][base+way]
			m.totalBytes -= m.cost[si][base+way]
		}
	} else {
		mask := m.masks[tenant]
		for v := mask; v != 0; {
			w := v.Nth(0)
			v = v.Without(w)
			if m.owner[si][base+w] < 0 {
				way = w
				break
			}
		}
		if way < 0 {
			for w := 0; w < m.c.ways; w++ {
				if m.owner[si][base+w] < 0 {
					way = w
					break
				}
			}
		}
		if way < 0 {
			// Mirror the cache: an already-expired line is reclaimed in
			// preference to evicting a live one — partition first, then
			// anywhere in the set.
			for v := mask; v != 0; {
				w := v.Nth(0)
				v = v.Without(w)
				if m.expired(si, base+w) {
					way = w
					break
				}
			}
			if way < 0 {
				for w := 0; w < m.c.ways; w++ {
					if m.expired(si, base+w) {
						way = w
						break
					}
				}
			}
			if way >= 0 {
				m.stats[m.owner[si][base+way]].Expirations++
				m.expires = append(m.expires, m.keys[si][base+way])
			} else {
				way = m.pols[si].Victim(set, tenant, mask)
				m.stats[m.owner[si][base+way]].Evictions++
				m.evicts = append(m.evicts, m.keys[si][base+way])
			}
			if m.costFn != nil {
				m.stats[m.owner[si][base+way]].Bytes -= m.cost[si][base+way]
				m.totalBytes -= m.cost[si][base+way]
			}
			m.live--
		}
		m.live++
	}
	m.keys[si][base+way] = key
	m.vals[si][base+way] = value
	m.owner[si][base+way] = int16(tenant)
	m.dl[si][base+way] = dl
	// Mirror setLocked's recency split: updates of a resident line are
	// Touches, new fills are Fills carrying the line's tag byte.
	if update {
		m.pols[si].Touch(set, way, tenant)
	} else {
		m.pols[si].Fill(set, way, tenant, tag)
	}
	if m.costFn != nil {
		cost := m.costFn(key, value)
		m.cost[si][base+way] = cost
		m.stats[tenant].Bytes += cost
		m.totalBytes += cost
	}
	return si, set, way
}

// setTTL mirrors SetTTL with an explicit new deadline (0 = remove).
func (m *refModel[K, V]) setTTL(key K, dl int64) bool {
	si, set := m.locate(key)
	base := set * m.c.ways
	for w := 0; w < m.c.ways; w++ {
		if m.owner[si][base+w] >= 0 && m.keys[si][base+w] == key {
			if m.expired(si, base+w) {
				m.expire(si, set, w)
				return false
			}
			m.dl[si][base+w] = dl
			return true
		}
	}
	return false
}

func (m *refModel[K, V]) delete(key K) bool {
	si, set := m.locate(key)
	base := set * m.c.ways
	for w := 0; w < m.c.ways; w++ {
		if m.owner[si][base+w] >= 0 && m.keys[si][base+w] == key {
			if m.expired(si, base+w) {
				m.expire(si, set, w)
				return false
			}
			m.clearSlot(si, set, w)
			return true
		}
	}
	return false
}

// checkState compares the cache's full slot contents — and the tag words'
// consistency with them — against the model.
func checkState[K comparable, V comparable](t *testing.T, c *Cache[K, V], m *refModel[K, V], step int) {
	t.Helper()
	if got := c.Len(); got != m.live {
		t.Fatalf("step %d: Len = %d, model %d", step, got, m.live)
	}
	for si := range c.shards {
		sh := &c.shards[si]
		for set := 0; set < c.sets; set++ {
			base := set * c.ways
			tbase := c.tagBase(set)
			for w := 0; w < c.ways; w++ {
				slotTag := uint8(sh.tags[tbase+w>>3] >> (uint(w&7) * 8))
				if sh.owner[base+w] != m.owner[si][base+w] {
					t.Fatalf("step %d: shard %d set %d way %d owner %d, model %d",
						step, si, set, w, sh.owner[base+w], m.owner[si][base+w])
				}
				if sh.owner[base+w] < 0 {
					if slotTag != tagEmpty {
						t.Fatalf("step %d: empty slot carries tag %#x", step, slotTag)
					}
					continue
				}
				if sh.keys[base+w] != m.keys[si][base+w] || sh.vals[base+w] != m.vals[si][base+w] {
					t.Fatalf("step %d: shard %d set %d way %d holds (%v,%v), model (%v,%v)",
						step, si, set, w, sh.keys[base+w], sh.vals[base+w], m.keys[si][base+w], m.vals[si][base+w])
				}
				if want := tagOf(maphash.Comparable(c.seed, sh.keys[base+w])); slotTag != want {
					t.Fatalf("step %d: slot tag %#x inconsistent with key hash tag %#x", step, slotTag, want)
				}
				hasTTL := sh.ttl[set]&(1<<uint(w)) != 0
				if hasTTL != (m.dl[si][base+w] != 0) {
					t.Fatalf("step %d: shard %d set %d way %d ttl bit %v, model deadline %d",
						step, si, set, w, hasTTL, m.dl[si][base+w])
				}
				if hasTTL && sh.deadline[base+w] != m.dl[si][base+w] {
					t.Fatalf("step %d: deadline %d, model %d", step, sh.deadline[base+w], m.dl[si][base+w])
				}
				// Timing-wheel invariant: a slot is linked iff it
				// carries a deadline.
				if sh.wheel != nil {
					if linked := sh.wheel.where[base+w] != wheelNoBucket; linked != hasTTL {
						t.Fatalf("step %d: shard %d set %d way %d wheel-linked=%v but ttl bit=%v",
							step, si, set, w, linked, hasTTL)
					}
				}
				if sh.cost != nil && sh.cost[base+w] != m.cost[si][base+w] {
					t.Fatalf("step %d: slot cost %d, model %d", step, sh.cost[base+w], m.cost[si][base+w])
				}
			}
		}
	}
	gotStats := c.Stats()
	for tn := range gotStats {
		if gotStats[tn] != m.stats[tn] {
			t.Fatalf("step %d: tenant %d stats %+v, model %+v", step, tn, gotStats[tn], m.stats[tn])
		}
	}
}

// randomQuotas derives a valid quota vector (each >= 1, sums to ways) from
// an RNG.
func randomQuotas(rng *uint64, tenants, ways int) []int {
	next := func() uint64 {
		*rng ^= *rng << 13
		*rng ^= *rng >> 7
		*rng ^= *rng << 17
		return *rng
	}
	q := make([]int, tenants)
	left := ways - tenants
	for i := range q {
		q[i] = 1
	}
	for left > 0 {
		q[int(next()%uint64(tenants))]++
		left--
	}
	return q
}

// recency names the level every differential subtest sits under: a hit
// updates its set's recency state immediately, under the shard lock.
const recency = "immediate"

// TestDifferentialAgainstLinearModel drives identical random workloads
// (gets, sets, deletes, quota changes, rebalances) through the
// tag-accelerated cache and the linear-scan reference model under every
// policy, on both power-of-two and odd set counts, and requires hit/miss
// results, eviction streams, stats and full final state to match exactly.
func TestDifferentialAgainstLinearModel(t *testing.T) {
	type geo struct {
		shards, sets, ways, tenants int
	}
	geos := []geo{
		{shards: 2, sets: 8, ways: 8, tenants: 3},
		{shards: 1, sets: 5, ways: 4, tenants: 2}, // odd sets: modulo set mapping
		{shards: 4, sets: 16, ways: 16, tenants: 4},
		{shards: 2, sets: 64, ways: 8, tenants: 3}, // split: 8 lock domains of 16 sets
	}
	const polSeed = 99
	for _, pol := range diffKinds {
		for _, g := range geos {
			if pol == plru.BT && g.ways&(g.ways-1) != 0 {
				continue
			}
			t.Run(fmt.Sprintf("%s/%v/%dx%dx%d", recency, pol, g.shards, g.sets, g.ways), func(t *testing.T) {
				var evicted []uint64
				c, err := New[uint64, uint64](
					WithShards(g.shards), WithSets(g.sets), WithWays(g.ways),
					WithPolicy(pol), WithPartitions(g.tenants), WithSeed(polSeed),
					WithProfileSampling(2),
					WithOnEvict(func(k, v uint64) { evicted = append(evicted, k) }),
				)
				if err != nil {
					t.Fatal(err)
				}
				m := newRefModel(c, pol, polSeed)

				rng := uint64(g.shards*1000+g.ways) ^ uint64(pol)<<32 | 1
				next := func() uint64 {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					return rng
				}
				keySpace := uint64(g.shards * g.sets * g.ways * 2)
				const steps = 30_000
				for i := 0; i < steps; i++ {
					op := next() % 100
					tenant := int(next() % uint64(g.tenants))
					key := next() % keySpace
					switch {
					case op < 55: // lookup
						gv, gok := c.GetTenant(tenant, key)
						mv, mok := m.get(tenant, key)
						if gok != mok || gv != mv {
							t.Fatalf("step %d: Get(%d,%d) = (%d,%v), model (%d,%v)", i, tenant, key, gv, gok, mv, mok)
						}
					case op < 85: // insert/update
						c.SetTenant(tenant, key, key*3)
						m.set(tenant, key, key*3)
					case op < 95: // delete
						if got, want := c.Delete(key), m.delete(key); got != want {
							t.Fatalf("step %d: Delete(%d) = %v, model %v", i, key, got, want)
						}
					case op < 98: // quota change
						q := randomQuotas(&rng, g.tenants, g.ways)
						if err := c.SetQuotas(q); err != nil {
							t.Fatalf("step %d: SetQuotas(%v): %v", i, q, err)
						}
						m.syncMasks()
					default: // online repartition
						if _, err := c.Rebalance(); err != nil {
							t.Fatalf("step %d: Rebalance: %v", i, err)
						}
						m.syncMasks()
					}
					if i%2048 == 0 {
						checkState(t, c, m, i)
					}
				}
				checkState(t, c, m, steps)
				if len(evicted) != len(m.evicts) {
					t.Fatalf("eviction streams differ in length: %d vs model %d", len(evicted), len(m.evicts))
				}
				for i := range evicted {
					if evicted[i] != m.evicts[i] {
						t.Fatalf("eviction %d: key %d, model %d", i, evicted[i], m.evicts[i])
					}
				}
			})
		}
	}
}

// TestDifferentialTTLAndCost drives random workloads that mix lookups,
// plain and TTL'd inserts, TTL re-arms, deletes, clock advances, quota
// changes and budget-capped rebalances through the cache and the
// linear-scan model under every policy, on a shared fake clock. Hits,
// misses, SetTTL/Delete results, eviction and expiration streams, cost
// gauges and full slot state (including deadlines) must match exactly.
func TestDifferentialTTLAndCost(t *testing.T) {
	type geo struct {
		shards, sets, ways, tenants int
		defaultTTL                  int64 // nanoseconds on the fake clock
	}
	geos := []geo{
		{shards: 2, sets: 8, ways: 8, tenants: 3, defaultTTL: 0},
		{shards: 1, sets: 5, ways: 4, tenants: 2, defaultTTL: 100}, // odd sets + default TTL
		{shards: 4, sets: 16, ways: 16, tenants: 4, defaultTTL: 0},
		{shards: 2, sets: 64, ways: 8, tenants: 3, defaultTTL: 0}, // split: 8 lock domains
	}
	const polSeed = 123
	costOf := func(k, v uint64) uint64 { return k%7 + 1 }
	for _, pol := range diffKinds {
		for _, g := range geos {
			t.Run(fmt.Sprintf("%s/%v/%dx%dx%d", recency, pol, g.shards, g.sets, g.ways), func(t *testing.T) {
				clk := newFakeClock()
				var evicted, expired []uint64
				opts := []Option{
					WithShards(g.shards), WithSets(g.sets), WithWays(g.ways),
					WithPolicy(pol), WithPartitions(g.tenants), WithSeed(polSeed),
					WithProfileSampling(2),
					WithNow(clk.Load), WithTTLSweep(0),
					WithCost(costOf),
					WithOnEvict(func(k, v uint64) { evicted = append(evicted, k) }),
					WithOnExpire(func(k, v uint64) { expired = append(expired, k) }),
				}
				if g.defaultTTL > 0 {
					opts = append(opts, WithDefaultTTL(time.Duration(g.defaultTTL)))
				}
				c, err := New[uint64, uint64](opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				budgets := make([]uint64, g.tenants)
				budgets[0] = 64 // tight: the capped DP actually binds
				if err := c.SetBudgets(budgets); err != nil {
					t.Fatal(err)
				}
				m := newRefModel(c, pol, polSeed)
				m.now = clk.Load
				m.costFn = costOf

				rng := uint64(g.shards*999+g.ways) ^ uint64(pol)<<24 | 1
				next := func() uint64 {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					return rng
				}
				ttlChoice := func() time.Duration {
					switch next() % 4 {
					case 0:
						return -5 * time.Nanosecond // born expired
					case 1:
						return 0 // pinned
					case 2:
						return 20 * time.Nanosecond
					default:
						return 500 * time.Nanosecond
					}
				}
				keySpace := uint64(g.shards * g.sets * g.ways * 2)
				const steps = 30_000
				for i := 0; i < steps; i++ {
					op := next() % 100
					tenant := int(next() % uint64(g.tenants))
					key := next() % keySpace
					switch {
					case op < 40: // lookup
						gv, gok := c.GetTenant(tenant, key)
						mv, mok := m.get(tenant, key)
						if gok != mok || gv != mv {
							t.Fatalf("step %d: Get(%d,%d) = (%d,%v), model (%d,%v)", i, tenant, key, gv, gok, mv, mok)
						}
					case op < 62: // plain insert/update (default TTL applies)
						var dl int64
						if g.defaultTTL > 0 {
							dl = clk.Load() + g.defaultTTL
						}
						c.SetTenant(tenant, key, key*3)
						m.setDL(tenant, key, key*3, dl)
					case op < 74: // insert/update with explicit TTL
						ttl := ttlChoice()
						var dl int64
						if ttl != 0 {
							dl = clk.Load() + int64(ttl)
						}
						c.SetTenantTTL(tenant, key, key*3, ttl)
						m.setDL(tenant, key, key*3, dl)
					case op < 80: // re-arm TTL
						ttl := ttlChoice()
						var dl int64
						if ttl != 0 {
							dl = clk.Load() + int64(ttl)
						}
						if got, want := c.SetTTL(key, ttl), m.setTTL(key, dl); got != want {
							t.Fatalf("step %d: SetTTL(%d,%v) = %v, model %v", i, key, ttl, got, want)
						}
					case op < 87: // delete
						if got, want := c.Delete(key), m.delete(key); got != want {
							t.Fatalf("step %d: Delete(%d) = %v, model %v", i, key, got, want)
						}
					case op < 92: // time passes
						clk.advance(time.Duration(next() % 60))
					case op < 95: // quota change
						q := randomQuotas(&rng, g.tenants, g.ways)
						if err := c.SetQuotas(q); err != nil {
							t.Fatalf("step %d: SetQuotas(%v): %v", i, q, err)
						}
						m.syncMasks()
					default: // budget-capped online repartition
						if _, err := c.Rebalance(); err != nil {
							t.Fatalf("step %d: Rebalance: %v", i, err)
						}
						m.syncMasks()
					}
					if i%2048 == 0 {
						checkState(t, c, m, i)
					}
				}
				checkState(t, c, m, steps)
				if len(evicted) != len(m.evicts) {
					t.Fatalf("eviction streams differ in length: %d vs model %d", len(evicted), len(m.evicts))
				}
				for i := range evicted {
					if evicted[i] != m.evicts[i] {
						t.Fatalf("eviction %d: key %d, model %d", i, evicted[i], m.evicts[i])
					}
				}
				if len(expired) != len(m.expires) {
					t.Fatalf("expiration streams differ in length: %d vs model %d", len(expired), len(m.expires))
				}
				for i := range expired {
					if expired[i] != m.expires[i] {
						t.Fatalf("expiration %d: key %d, model %d", i, expired[i], m.expires[i])
					}
				}
				if len(m.expires) == 0 {
					t.Fatal("workload never expired anything; TTL coverage is vacuous")
				}
			})
		}
	}
}

// TestDifferentialBatchOps replays a workload through batch APIs on one
// cache and per-key APIs on another sharing the same hash seed; the final
// contents, stats and per-key results must match (a batch is the per-key
// loop). Every policy kind runs.
func TestDifferentialBatchOps(t *testing.T) {
	for _, pol := range diffBatchKinds {
		t.Run(recency+"/"+pol.String(), func(t *testing.T) { diffBatchOps(t, pol) })
	}
}

func diffBatchOps(t *testing.T, pol plru.Kind) {
	build := func() *Cache[uint64, uint64] {
		c, err := New[uint64, uint64](
			WithShards(4), WithSets(8), WithWays(8),
			WithPolicy(pol), WithPartitions(2), WithSeed(5),
		)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1 := build()
	c2 := build()
	c2.seed = c1.seed // same key placement (white box)

	const batch = 33 // deliberately not a multiple of anything
	keys := make([]uint64, batch)
	vals := make([]uint64, batch)
	gvals := make([]uint64, batch)
	oks := make([]bool, batch)

	rng := uint64(77)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for round := 0; round < 400; round++ {
		tenant := int(next() % 2)
		for i := range keys {
			keys[i] = next() % 1024
			vals[i] = keys[i] * 7
		}
		if next()%2 == 0 {
			c1.SetBatch(tenant, keys, vals)
			for i := range keys {
				c2.SetTenant(tenant, keys[i], vals[i])
			}
		} else {
			c1.GetBatch(tenant, keys, gvals, oks)
			for i := range keys {
				v, ok := c2.GetTenant(tenant, keys[i])
				if ok != oks[i] || v != gvals[i] {
					t.Fatalf("round %d key %d: batch (%d,%v) vs sequential (%d,%v)",
						round, keys[i], gvals[i], oks[i], v, ok)
				}
			}
		}
	}
	s1, s2 := c1.Stats(), c2.Stats()
	for tn := range s1 {
		if s1[tn] != s2[tn] {
			t.Fatalf("tenant %d stats: batch %+v vs sequential %+v", tn, s1[tn], s2[tn])
		}
	}
	if c1.Len() != c2.Len() {
		t.Fatalf("Len: batch %d vs sequential %d", c1.Len(), c2.Len())
	}
	for k := uint64(0); k < 1024; k++ {
		v1, ok1 := c1.Get(k)
		v2, ok2 := c2.Get(k)
		if ok1 != ok2 || v1 != v2 {
			t.Fatalf("final content diverges at key %d: (%d,%v) vs (%d,%v)", k, v1, ok1, v2, ok2)
		}
	}
}
