package cpacache

// The memory governor: hard byte budgets and the memory-pressure ladder.
//
// Without this file, byte budgets only steer the partitioner — SetBudgets
// values become way caps at the next Rebalance, so a burst of heavy
// WithCost writes overshoots every budget until the ticker fires. The
// governor makes the byte envelope as hard as the way masks already are:
//
//   - WithMaxBytes installs a global resident-cost cap that Set/SetBatch
//     enforce evict-on-write; WithHardBudgets upgrades the per-tenant
//     SetBudgets values to the same discipline.
//   - Enforcement is insert-then-reclaim: the write lands first (so the
//     just-acknowledged line is never its own victim), then expired lines
//     are reclaimed, then live victims are evicted — chosen by the
//     replacement policy, constrained to the over-budget tenant's own
//     lines (mask-preferred) — until the gauges fit. Reclaim starts in
//     the insert's lock domain under the lock already held and walks the
//     remaining domains in ring order one lock at a time, so enforcement
//     never nests domain locks. Budget evictions are counted separately
//     from capacity evictions (TenantStats.BudgetEvictions).
//   - Entries that could never fit are rejected with ErrEntryTooLarge
//     instead of wedging the write in a reclaim spiral.
//   - The pressure ladder watches the global gauge against high/low
//     watermarks: at the high mark the cache reports PressureOOM (the
//     server layers a redis-style -OOM write gate on it), between the
//     marks the background sweeper and auto-rebalance run on a shortened
//     tick with the rebalance hysteresis overridden, and recovery below
//     the low mark clears the state. Transitions are emitted through
//     MetricsSink.Pressure.
//
// Gauges: gaugeTenant[t]/gaugeTotal are atomic mirrors of the per-domain
// TenantStats.Bytes parts, updated at the exact same domain-locked points
// (fill, update refund, clearSlotLocked). They are the governor's own:
// allocated and written only under a hard limit, because only stillOver
// and checkPressure read them, re-checking the totals after every single
// reclaim without touching every domain lock. Every other reader —
// Stats, UsedBytes, Snapshot — sums the per-domain parts, which remain
// the source of truth. Because the decrement happens under the domain
// lock before the slot's OnEvict callback runs, a Snapshot taken during
// an in-flight budget eviction counts the departing line's bytes exactly
// once.
//
// The reclaim scan order is deterministic (sets ascending, expired
// before live, owner-scoped before global) so the differential model
// can mirror enforcement bit-exactly across every policy kind.

import (
	"errors"
	"hash/maphash"
	"math/bits"
	"time"

	"repro/pkg/plru"
)

// ErrEntryTooLarge is returned by Set/SetTenant/SetTenantTTL (and wrapped
// by SetBatch) when a single entry's WithCost measurement exceeds a hard
// budget it would be enforced under — the writing tenant's WithHardBudgets
// byte budget or the WithMaxBytes global cap. Such an entry can never fit,
// so it is rejected up front rather than evicting the whole partition and
// failing anyway.
var ErrEntryTooLarge = errors.New("cpacache: entry cost exceeds the hard byte budget")

// PressureState is the memory-pressure ladder position derived from the
// global byte gauge and the WithPressureWatermarks marks.
type PressureState int32

const (
	// PressureOK: the gauge is below the low watermark.
	PressureOK PressureState = iota
	// PressureAggressive: the gauge crossed the low watermark. Background
	// maintenance (TTL sweeper, auto-rebalance) runs on a shortened tick
	// and the rebalance hysteresis yields to any predicted improvement.
	PressureAggressive
	// PressureOOM: the gauge crossed the high watermark. Servers should
	// reject writes (reads, deletes and expiry remain safe); the state
	// holds until the gauge drains below the LOW watermark, so the
	// cache does not flap at the high mark.
	PressureOOM
)

func (p PressureState) String() string {
	switch p {
	case PressureOK:
		return "ok"
	case PressureAggressive:
		return "aggressive"
	case PressureOOM:
		return "oom"
	default:
		return "invalid"
	}
}

// Default watermark fractions of WithMaxBytes, used when WithMaxBytes is
// set without WithPressureWatermarks.
const (
	defaultHighWatermark = 0.9
	defaultLowWatermark  = 0.75
)

// Reclaim scopes: a tenant pass frees only the over-budget tenant's own
// lines against its SetBudgets value; a global pass frees anyone's lines
// against WithMaxBytes.
const (
	scopeTenant = iota
	scopeGlobal
)

// enforcing reports whether any hard byte limit is configured; false is
// the common case and keeps the write hot path to one predictable branch.
func (c *Cache[K, V]) enforcing() bool { return c.hardBudgets || c.maxBytes > 0 }

// gaugeAdd/gaugeSub maintain the atomic byte gauges alongside the
// per-domain TenantStats.Bytes parts when a hard limit reads them.
// Callers hold the owning domain's lock and only call when cost
// accounting is on (sh.cost != nil).
func (c *Cache[K, V]) gaugeAdd(tenant int16, n uint64) {
	if c.gaugeTenant != nil {
		c.gaugeTenant[tenant].Add(int64(n))
		c.gaugeTotal.Add(int64(n))
	}
}

func (c *Cache[K, V]) gaugeSub(tenant int16, n uint64) {
	if c.gaugeTenant != nil {
		c.gaugeTenant[tenant].Add(-int64(n))
		c.gaugeTotal.Add(-int64(n))
	}
}

// admitCost rejects an entry that could never fit under the hard limits
// it would be enforced against. Called before the shard lock is taken.
func (c *Cache[K, V]) admitCost(tenant int, cost uint64) error {
	if c.hardBudgets {
		if b := c.budgetAtomic[tenant].Load(); b > 0 && cost > b {
			return ErrEntryTooLarge
		}
	}
	if c.maxBytes > 0 && cost > c.maxBytes {
		return ErrEntryTooLarge
	}
	return nil
}

// stillOver reports whether the scope's budget is still violated. Reads
// only atomics, so it is safe to re-check after every single reclaim.
func (c *Cache[K, V]) stillOver(tenant, scope int) bool {
	if scope == scopeTenant {
		b := c.budgetAtomic[tenant].Load()
		return b > 0 && uint64(c.gaugeTenant[tenant].Load()) > b
	}
	return c.maxBytes > 0 && uint64(c.gaugeTotal.Load()) > c.maxBytes
}

// overBudget reports whether the writing tenant's hard budget or the
// global cap is violated — the condition that arms enforcement.
func (c *Cache[K, V]) overBudget(tenant int) bool {
	if c.hardBudgets && c.stillOver(tenant, scopeTenant) {
		return true
	}
	return c.stillOver(tenant, scopeGlobal)
}

// enforceShardLocked brings the writing tenant's gauge and the global
// gauge back under their budgets by reclaiming lines from sh. The slot at
// (protSet, protWay) — the line the triggering write just installed — is
// never reclaimed by its own write (pass -1, -1 to protect nothing).
// Caller holds sh.mu; reclaimed pairs are buffered in s for the caller to
// flush after unlock.
func (c *Cache[K, V]) enforceShardLocked(sh *shard[K, V], tenant, protSet, protWay int, s *batchScratch[K, V]) {
	if c.hardBudgets {
		c.reclaimShardLocked(sh, tenant, scopeTenant, protSet, protWay, s)
	}
	if c.maxBytes > 0 {
		c.reclaimShardLocked(sh, tenant, scopeGlobal, protSet, protWay, s)
	}
}

// reclaimShardLocked runs the deterministic reclaim ladder for one scope
// over one shard: (1) expired lines — the tenant's own under scopeTenant,
// anyone's under scopeGlobal; (2) the writing tenant's live lines, policy
// chosen and mask-preferred; (3) under scopeGlobal only, anyone's live
// lines. Every pass re-checks the gauge after each reclaim and stops the
// moment the budget fits. Caller holds sh.mu.
func (c *Cache[K, V]) reclaimShardLocked(sh *shard[K, V], tenant, scope, protSet, protWay int, s *batchScratch[K, V]) {
	if !c.stillOver(tenant, scope) {
		return
	}
	now := c.now()
	for set := 0; set < c.sets; set++ {
		if !c.stillOver(tenant, scope) {
			return
		}
		marked := sh.ttl[set] & c.waysMask
		if marked == 0 {
			continue
		}
		base := set * c.ways
		for e := marked; e != 0; e &= e - 1 {
			w := bits.TrailingZeros64(e)
			if set == protSet && w == protWay {
				continue
			}
			if scope == scopeTenant && int(sh.owner[base+w]) != tenant {
				continue
			}
			if sh.deadline[base+w] > now {
				continue
			}
			exK, exV := c.expireLocked(sh, set, w)
			if c.onExpire != nil {
				s.exK = append(s.exK, exK)
				s.exV = append(s.exV, exV)
			}
			if !c.stillOver(tenant, scope) {
				return
			}
		}
	}
	c.evictOwnedLocked(sh, tenant, scope, protSet, protWay, s)
	if scope == scopeGlobal {
		c.evictAnyLocked(sh, tenant, protSet, protWay, s)
	}
}

// evictOwnedLocked evicts live lines the writing tenant owns until the
// scope's budget fits or none remain. Within a set the victim is chosen
// by the tenant's replacement policy over its own lines, preferring the
// ones inside its partition mask — the same mask discipline capacity
// eviction uses. Caller holds sh.mu.
func (c *Cache[K, V]) evictOwnedLocked(sh *shard[K, V], tenant, scope, protSet, protWay int, s *batchScratch[K, V]) {
	for set := 0; set < c.sets; set++ {
		if !c.stillOver(tenant, scope) {
			return
		}
		base := set * c.ways
		for c.stillOver(tenant, scope) {
			var owned uint64
			for w := 0; w < c.ways; w++ {
				if int(sh.owner[base+w]) == tenant && !(set == protSet && w == protWay) {
					owned |= 1 << uint(w)
				}
			}
			if owned == 0 {
				break
			}
			pick := owned & uint64(sh.masks[tenant])
			if pick == 0 {
				pick = owned
			}
			way := sh.pol.Victim(set, tenant, plru.WayMask(pick))
			c.budgetEvictLocked(sh, set, way, s)
		}
	}
}

// evictAnyLocked is the global scope's last resort: evict anyone's live
// line (policy-chosen over every occupied way) until the WithMaxBytes cap
// fits. Only reached when expired reclamation and the writer's own lines
// were not enough. Caller holds sh.mu.
func (c *Cache[K, V]) evictAnyLocked(sh *shard[K, V], tenant, protSet, protWay int, s *batchScratch[K, V]) {
	for set := 0; set < c.sets; set++ {
		if !c.stillOver(tenant, scopeGlobal) {
			return
		}
		base := set * c.ways
		for c.stillOver(tenant, scopeGlobal) {
			var occ uint64
			for w := 0; w < c.ways; w++ {
				if sh.owner[base+w] >= 0 && !(set == protSet && w == protWay) {
					occ |= 1 << uint(w)
				}
			}
			if occ == 0 {
				break
			}
			way := sh.pol.Victim(set, tenant, plru.WayMask(occ))
			c.budgetEvictLocked(sh, set, way, s)
		}
	}
}

// budgetEvictLocked reclaims one live line as a budget eviction: counted
// against the owner's BudgetEvictions (distinct from capacity Evictions),
// added to the cache-wide evicted-bytes total, and buffered for OnEvict.
// Caller holds sh.mu.
func (c *Cache[K, V]) budgetEvictLocked(sh *shard[K, V], set, way int, s *batchScratch[K, V]) {
	base := set * c.ways
	sh.stats[sh.owner[base+way]].BudgetEvictions++
	c.nBudgetEvict.Add(1)
	if sh.cost != nil {
		c.nBudgetEvictBytes.Add(sh.cost[base+way])
	}
	k, v := sh.keys[base+way], sh.vals[base+way]
	c.clearSlotLocked(sh, set, way)
	if c.onEvict != nil {
		s.evK = append(s.evK, k)
		s.evV = append(s.evV, v)
	}
}

// enforceAcross continues enforcement over the remaining lock domains
// when the insert's domain alone could not satisfy the budgets (a
// tenant's bytes live wherever its keys hashed). Domains are visited in
// ring order starting after the insert's, one lock at a time —
// enforcement never holds two domain locks, so concurrent writers cannot
// deadlock — with buffered callbacks flushed between domains. Caller
// holds no domain lock.
func (c *Cache[K, V]) enforceAcross(tenant, protIdx int, s *batchScratch[K, V]) {
	for off := 1; off < len(c.shards); off++ {
		if !c.overBudget(tenant) {
			return
		}
		sh := &c.shards[(protIdx+off)%len(c.shards)]
		sh.mu.Lock()
		c.enforceShardLocked(sh, tenant, -1, -1, s)
		sh.mu.Unlock()
		c.flushCallbacks(s)
	}
}

// setWithDeadline is the shared SetTenant/SetTenantTTL write path:
// admission check, locked insert, hard-budget enforcement, pressure
// re-check. Without hard limits it is the pre-governor write path plus
// two predictable branches.
func (c *Cache[K, V]) setWithDeadline(tenant int, key K, value V, dl int64) error {
	h := maphash.Comparable(c.seed, key)
	si, set := c.place(h)
	sh := &c.shards[si]
	tag := tagOf(h)
	var cost uint64
	if c.costFn != nil {
		cost = c.costFn(key, value)
		if c.enforcing() {
			if err := c.admitCost(tenant, cost); err != nil {
				return err
			}
		}
	}
	sh.mu.Lock()
	evKey, evVal, kind, way := c.setLocked(sh, set, tenant, tag, key, value, dl, cost)
	if c.enforcing() && c.overBudget(tenant) {
		s := c.getScratch()
		c.enforceShardLocked(sh, tenant, set, way, s)
		sh.mu.Unlock()
		c.displaced(evKey, evVal, kind)
		c.flushCallbacks(s)
		if c.overBudget(tenant) {
			c.enforceAcross(tenant, si, s)
		}
		c.batchPool.Put(s)
		c.checkPressure()
		return nil
	}
	sh.mu.Unlock()
	c.displaced(evKey, evVal, kind)
	c.checkPressure()
	return nil
}

// checkPressure re-evaluates the pressure ladder from the global gauge
// and emits a PressureEvent on a transition. Called outside all shard
// locks after operations that move the gauge; costs one field test when
// no watermarks are configured. Transitions serialize on pressureMu so
// sink events arrive in order; the Pressure callback must not call back
// into the cache's write methods.
func (c *Cache[K, V]) checkPressure() {
	if c.highBytes == 0 {
		return
	}
	cur := PressureState(c.pressure.Load())
	if c.pressureFor(uint64(c.gaugeTotal.Load()), cur) == cur {
		return
	}
	c.pressureMu.Lock()
	cur = PressureState(c.pressure.Load())
	used := uint64(c.gaugeTotal.Load())
	next := c.pressureFor(used, cur)
	if next != cur {
		c.pressure.Store(int32(next))
		if c.sink.Pressure != nil {
			c.sink.Pressure(PressureEvent{From: cur, To: next, UsedBytes: used, MaxBytes: c.maxBytes})
		}
	}
	c.pressureMu.Unlock()
}

// pressureFor maps a gauge reading to the ladder state. Hysteresis: OOM
// is entered at the high watermark and holds anywhere above the low one,
// so a server does not flap between accepting and rejecting writes while
// the gauge hovers at the high mark.
func (c *Cache[K, V]) pressureFor(used uint64, cur PressureState) PressureState {
	switch {
	case used >= c.highBytes:
		return PressureOOM
	case used >= c.lowBytes:
		if cur == PressureOOM {
			return PressureOOM
		}
		return PressureAggressive
	default:
		return PressureOK
	}
}

// underPressure reports whether background maintenance should run in
// aggressive mode (the ladder is at Aggressive or OOM).
func (c *Cache[K, V]) underPressure() bool {
	return c.highBytes != 0 && PressureState(c.pressure.Load()) >= PressureAggressive
}

// pressureInterval shortens a background interval to a quarter (floored
// at the clock resolution) while the ladder is at Aggressive or above, so
// the sweeper reclaims expired bytes and auto-rebalance reacts to budget
// violations sooner exactly when memory is tight.
func (c *Cache[K, V]) pressureInterval(base time.Duration) time.Duration {
	if c.underPressure() {
		if q := base / 4; q > clockResolution {
			return q
		}
		return clockResolution
	}
	return base
}

// Pressure returns the cache's position on the memory-pressure ladder.
// Always PressureOK unless WithMaxBytes is configured.
func (c *Cache[K, V]) Pressure() PressureState {
	return PressureState(c.pressure.Load())
}

// UsedBytes returns the resident WithCost total across all tenants, the
// sum of Stats()[t].Bytes (so per-domain, not cross-domain, consistent).
// Always 0 without WithCost.
func (c *Cache[K, V]) UsedBytes() uint64 {
	var n uint64
	for _, s := range c.Stats() {
		n += s.Bytes
	}
	return n
}

// MaxBytes returns the WithMaxBytes global cap (0 = uncapped).
func (c *Cache[K, V]) MaxBytes() uint64 { return c.maxBytes }
