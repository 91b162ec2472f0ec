package cpacache

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/pkg/plru"
)

// Memory-governor mirror for the linear-scan reference model: the exact
// evict-on-write semantics of governor.go — admission, insert-then-
// reclaim, the expired→owned→any reclaim ladder, ring-order cross-shard
// walk — re-implemented over the model's plain slot arrays so a random
// workload driven through both must produce identical gauges, budget-
// eviction counts, eviction/expiration streams and final contents under
// every policy kind.

// tenantOverM/globalOverM/stillOverM mirror stillOver/overBudget on the
// model's gauges.
func (m *refModel[K, V]) stillOverM(tenant, scope int) bool {
	if scope == scopeTenant {
		b := m.budgets[tenant]
		return b > 0 && m.stats[tenant].Bytes > b
	}
	return m.maxBytes > 0 && m.totalBytes > m.maxBytes
}

func (m *refModel[K, V]) overBudgetM(tenant int) bool {
	if m.hardBudgets && m.stillOverM(tenant, scopeTenant) {
		return true
	}
	return m.stillOverM(tenant, scopeGlobal)
}

// setHard mirrors setWithDeadline: admission check, insert, enforcement
// in the insert shard (protecting the just-written line), then the
// ring-order walk over the remaining shards.
func (m *refModel[K, V]) setHard(tenant int, key K, value V, dl int64) error {
	cost := m.costFn(key, value)
	if m.hardBudgets {
		if b := m.budgets[tenant]; b > 0 && cost > b {
			return ErrEntryTooLarge
		}
	}
	if m.maxBytes > 0 && cost > m.maxBytes {
		return ErrEntryTooLarge
	}
	si, set, way := m.setDL(tenant, key, value, dl)
	if m.overBudgetM(tenant) {
		m.enforceShard(si, tenant, set, way)
		if m.overBudgetM(tenant) {
			for off := 1; off < len(m.keys); off++ {
				if !m.overBudgetM(tenant) {
					break
				}
				m.enforceShard((si+off)%len(m.keys), tenant, -1, -1)
			}
		}
	}
	return nil
}

// enforceShard mirrors enforceShardLocked.
func (m *refModel[K, V]) enforceShard(si, tenant, protSet, protWay int) {
	if m.hardBudgets {
		m.reclaimShard(si, tenant, scopeTenant, protSet, protWay)
	}
	if m.maxBytes > 0 {
		m.reclaimShard(si, tenant, scopeGlobal, protSet, protWay)
	}
}

// reclaimShard mirrors reclaimShardLocked's deterministic ladder: expired
// lines first (sets ascending, ways ascending), then the writing tenant's
// own live lines, then — global scope only — anyone's.
func (m *refModel[K, V]) reclaimShard(si, tenant, scope, protSet, protWay int) {
	if !m.stillOverM(tenant, scope) {
		return
	}
	var now int64
	if m.now != nil {
		now = m.now()
	}
	for set := 0; set < m.c.sets; set++ {
		if !m.stillOverM(tenant, scope) {
			return
		}
		base := set * m.c.ways
		for w := 0; w < m.c.ways; w++ {
			if m.dl[si][base+w] == 0 || m.owner[si][base+w] < 0 {
				continue
			}
			if set == protSet && w == protWay {
				continue
			}
			if scope == scopeTenant && int(m.owner[si][base+w]) != tenant {
				continue
			}
			if m.dl[si][base+w] > now {
				continue
			}
			m.expire(si, set, w)
			if !m.stillOverM(tenant, scope) {
				return
			}
		}
	}
	m.evictOwned(si, tenant, scope, protSet, protWay)
	if scope == scopeGlobal {
		m.evictAny(si, tenant, protSet, protWay)
	}
}

// evictOwned mirrors evictOwnedLocked: the tenant's own live lines,
// policy-chosen, mask-preferred.
func (m *refModel[K, V]) evictOwned(si, tenant, scope, protSet, protWay int) {
	for set := 0; set < m.c.sets; set++ {
		if !m.stillOverM(tenant, scope) {
			return
		}
		base := set * m.c.ways
		for m.stillOverM(tenant, scope) {
			var owned uint64
			for w := 0; w < m.c.ways; w++ {
				if int(m.owner[si][base+w]) == tenant && !(set == protSet && w == protWay) {
					owned |= 1 << uint(w)
				}
			}
			if owned == 0 {
				break
			}
			pick := owned & uint64(m.masks[tenant])
			if pick == 0 {
				pick = owned
			}
			way := m.pols[si].Victim(set, tenant, plru.WayMask(pick))
			m.budgetEvict(si, set, way)
		}
	}
}

// evictAny mirrors evictAnyLocked: the global scope's last resort.
func (m *refModel[K, V]) evictAny(si, tenant, protSet, protWay int) {
	for set := 0; set < m.c.sets; set++ {
		if !m.stillOverM(tenant, scopeGlobal) {
			return
		}
		base := set * m.c.ways
		for m.stillOverM(tenant, scopeGlobal) {
			var occ uint64
			for w := 0; w < m.c.ways; w++ {
				if m.owner[si][base+w] >= 0 && !(set == protSet && w == protWay) {
					occ |= 1 << uint(w)
				}
			}
			if occ == 0 {
				break
			}
			way := m.pols[si].Victim(set, tenant, plru.WayMask(occ))
			m.budgetEvict(si, set, way)
		}
	}
}

// budgetEvict mirrors budgetEvictLocked.
func (m *refModel[K, V]) budgetEvict(si, set, way int) {
	base := set * m.c.ways
	m.stats[m.owner[si][base+way]].BudgetEvictions++
	m.evicts = append(m.evicts, m.keys[si][base+way])
	m.clearSlot(si, set, way)
}

// TestDifferentialHardBudgets drives random workloads — lookups, plain
// and TTL'd inserts (including entries too large to ever fit), TTL
// re-arms, deletes, clock advances, quota changes and rebalances —
// through a WithHardBudgets+WithMaxBytes cache and the linear-scan model
// under every policy kind, in both recency configurations. Hits,
// eviction/expiration streams (budget evictions included), per-tenant
// gauges, BudgetEvictions counts and full slot state must match exactly,
// and after every single write the enforced invariant holds: no budgeted
// tenant's gauge above its budget, the global gauge never above
// WithMaxBytes.
func TestDifferentialHardBudgets(t *testing.T) {
	type geo struct {
		shards, sets, ways, tenants int
		defaultTTL                  int64
	}
	geos := []geo{
		{shards: 2, sets: 8, ways: 8, tenants: 3, defaultTTL: 0},
		{shards: 1, sets: 5, ways: 4, tenants: 2, defaultTTL: 100},
		{shards: 4, sets: 16, ways: 16, tenants: 4, defaultTTL: 0},
		{shards: 2, sets: 64, ways: 8, tenants: 3, defaultTTL: 0}, // split: 8 lock domains
	}
	const polSeed = 321
	costOf := func(k, v uint64) uint64 {
		if k%97 == 0 {
			return 1 << 20 // can never fit: exercises ErrEntryTooLarge
		}
		return k%7 + 1
	}
	for _, pol := range diffKinds {
		for _, g := range geos {
			if pol == plru.BT && g.ways&(g.ways-1) != 0 {
				continue
			}
			t.Run(fmt.Sprintf("%s/%v/%dx%dx%d", recency, pol, g.shards, g.sets, g.ways), func(t *testing.T) {
				capacityBytes := uint64(g.shards*g.sets*g.ways) * 4
				maxBytes := capacityBytes / 2
				budgets := make([]uint64, g.tenants)
				budgets[0] = capacityBytes / 8
				budgets[1] = capacityBytes / 6

				clk := newFakeClock()
				var evicted, expired []uint64
				opts := []Option{
					WithShards(g.shards), WithSets(g.sets), WithWays(g.ways),
					WithPolicy(pol), WithPartitions(g.tenants), WithSeed(polSeed),
					WithProfileSampling(2),
					WithNow(clk.Load), WithTTLSweep(0),
					WithCost(costOf),
					WithHardBudgets(),
					WithMaxBytes(maxBytes),
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
				if err := c.SetBudgets(budgets); err != nil {
					t.Fatal(err)
				}
				m := newRefModel(c, pol, polSeed)
				m.now = clk.Load
				m.costFn = costOf
				m.budgets = budgets
				m.maxBytes = maxBytes
				m.hardBudgets = true

				rng := uint64(g.shards*4242+g.ways) ^ uint64(pol)<<24 | 1
				next := func() uint64 {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					return rng
				}
				ttlChoice := func() time.Duration {
					switch next() % 4 {
					case 0:
						return -5 * time.Nanosecond
					case 1:
						return 0
					case 2:
						return 20 * time.Nanosecond
					default:
						return 500 * time.Nanosecond
					}
				}
				checkGauges := func(step int) {
					t.Helper()
					for tn := 0; tn < g.tenants; tn++ {
						got := uint64(c.gaugeTenant[tn].Load())
						if got != m.stats[tn].Bytes {
							t.Fatalf("step %d: tenant %d gauge %d, model %d", step, tn, got, m.stats[tn].Bytes)
						}
						if b := budgets[tn]; b > 0 && got > b {
							t.Fatalf("step %d: tenant %d gauge %d exceeds hard budget %d", step, tn, got, b)
						}
					}
					total := uint64(c.gaugeTotal.Load())
					if total != m.totalBytes {
						t.Fatalf("step %d: global gauge %d, model %d", step, total, m.totalBytes)
					}
					if total > maxBytes {
						t.Fatalf("step %d: global gauge %d exceeds WithMaxBytes %d", step, total, maxBytes)
					}
					if got := c.UsedBytes(); got != total {
						t.Fatalf("step %d: UsedBytes %d != gauge %d", step, got, total)
					}
				}
				keySpace := uint64(g.shards * g.sets * g.ways * 2)
				rejected := 0
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
						gerr := c.SetTenant(tenant, key, key*3)
						merr := m.setHard(tenant, key, key*3, dl)
						if (gerr != nil) != (merr != nil) {
							t.Fatalf("step %d: Set(%d,%d) err %v, model %v", i, tenant, key, gerr, merr)
						}
						if gerr != nil {
							if !errors.Is(gerr, ErrEntryTooLarge) {
								t.Fatalf("step %d: Set error %v, want ErrEntryTooLarge", i, gerr)
							}
							rejected++
						}
						checkGauges(i)
					case op < 74: // insert/update with explicit TTL
						ttl := ttlChoice()
						var dl int64
						if ttl != 0 {
							dl = clk.Load() + int64(ttl)
						}
						gerr := c.SetTenantTTL(tenant, key, key*3, ttl)
						merr := m.setHard(tenant, key, key*3, dl)
						if (gerr != nil) != (merr != nil) {
							t.Fatalf("step %d: SetTTL(%d,%d) err %v, model %v", i, tenant, key, gerr, merr)
						}
						checkGauges(i)
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
						checkGauges(i)
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
				var budgetEv uint64
				for _, ts := range c.Stats() {
					budgetEv += ts.BudgetEvictions
				}
				if budgetEv == 0 {
					t.Fatal("workload never forced a budget eviction; enforcement coverage is vacuous")
				}
				if rejected == 0 {
					t.Fatal("workload never rejected an oversized entry; ErrEntryTooLarge coverage is vacuous")
				}
				if got := c.Snapshot().BudgetEvictedBytes; got == 0 {
					t.Fatal("Snapshot.BudgetEvictedBytes stayed 0 despite budget evictions")
				}
			})
		}
	}
}

// TestDifferentialHardBudgetBatch replays a hard-budget workload through
// SetBatch on one cache and per-key SetTenant on another sharing the same
// hash seed. The batch is the per-key loop, so stats (BudgetEvictions
// included), gauges and final contents must match exactly after every
// round. Oversized keys must be skipped without poisoning the rest of
// the batch.
func TestDifferentialHardBudgetBatch(t *testing.T) {
	costOf := func(k, v uint64) uint64 {
		if k%89 == 0 {
			return 1 << 20
		}
		return k%9 + 1
	}
	for _, pol := range diffBatchKinds {
		t.Run(recency+"/"+pol.String(), func(t *testing.T) {
			build := func() *Cache[uint64, uint64] {
				c, err := New[uint64, uint64](
					WithShards(1), WithSets(16), WithWays(8),
					WithPolicy(pol), WithPartitions(2), WithSeed(5),
					WithCost(costOf), WithHardBudgets(), WithMaxBytes(256),
				)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.SetBudgets([]uint64{96, 0}); err != nil {
					t.Fatal(err)
				}
				return c
			}
			c1 := build()
			c2 := build()
			c2.seed = c1.seed // same key placement (white box)

			const batch = 33
			keys := make([]uint64, batch)
			vals := make([]uint64, batch)

			rng := uint64(77)
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			for round := 0; round < 400; round++ {
				tenant := int(next() % 2)
				oversized := 0
				for i := range keys {
					keys[i] = next() % 1024
					vals[i] = keys[i] * 7
					if keys[i]%89 == 0 {
						oversized++
					}
				}
				err1 := c1.SetBatch(tenant, keys, vals)
				sawErr := 0
				for i := range keys {
					if err := c2.SetTenant(tenant, keys[i], vals[i]); err != nil {
						if !errors.Is(err, ErrEntryTooLarge) {
							t.Fatalf("round %d: SetTenant error %v", round, err)
						}
						sawErr++
					}
				}
				if oversized != sawErr {
					t.Fatalf("round %d: %d oversized keys but %d per-key rejections", round, oversized, sawErr)
				}
				if (err1 != nil) != (oversized > 0) || (err1 != nil && !errors.Is(err1, ErrEntryTooLarge)) {
					t.Fatalf("round %d: SetBatch err %v with %d oversized keys", round, err1, oversized)
				}
				for tn := 0; tn < 2; tn++ {
					if g1, g2 := c1.gaugeTenant[tn].Load(), c2.gaugeTenant[tn].Load(); g1 != g2 {
						t.Fatalf("round %d: tenant %d gauge batch %d vs sequential %d", round, tn, g1, g2)
					}
				}
				if u1, u2 := c1.UsedBytes(), c2.UsedBytes(); u1 != u2 || u1 > 256 {
					t.Fatalf("round %d: UsedBytes batch %d vs sequential %d (cap 256)", round, u1, u2)
				}
			}
			s1, s2 := c1.Stats(), c2.Stats()
			var budgetEv uint64
			for tn := range s1 {
				if s1[tn] != s2[tn] {
					t.Fatalf("tenant %d stats: batch %+v vs sequential %+v", tn, s1[tn], s2[tn])
				}
				budgetEv += s1[tn].BudgetEvictions
			}
			if budgetEv == 0 {
				t.Fatal("workload never forced a budget eviction; coverage is vacuous")
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
		})
	}
}
