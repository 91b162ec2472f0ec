package cpacache

import (
	"fmt"
	"time"
)

// Lifecycle management: TTL/expiry, the background goroutines (coarse
// clock, timing-wheel sweeper, auto-rebalance ticker) and byte budgets.
//
// Expiry is hardware-flavored like the rest of the cache: each set keeps
// one word with a bit per way marking slots that carry a deadline, so the
// lookup hot path pays a single word test when the probed line has no TTL
// and one clock read when it does — the Get path stays allocation-free
// and within noise of the TTL-less probe. Reclamation is lazy (any
// lookup, Set or Delete that lands on an expired line reclaims it) plus a
// background sweeper driven by a hierarchical timing wheel: every
// deadline-carrying slot is linked — through intrusive doubly linked
// lists, so inserts, moves and removals are O(1) and allocation-free —
// into the bucket of the wheel level matching its distance-to-deadline,
// and a sweep tick visits only the entries that are actually due instead
// of scanning sets. A tick that finds a lock domain contended skips that
// domain (backpressure; the entries remain linked and the next tick
// retries) and reports the skip through the metrics sink.
//
// The TTL clock is deliberately coarse: a background goroutine stores
// time.Now().UnixNano() into an atomic every clockResolution, and the hot
// path only ever loads that atomic. WithNow replaces the clock entirely
// (no goroutine), which callers use to share an existing coarse clock or
// to drive expiry deterministically in tests.

// clockResolution is how often the internal coarse clock advances, and
// therefore the precision of TTL expiry under the built-in clock.
const clockResolution = time.Millisecond

// Timing-wheel geometry. Each of the wheelLevels levels has wheelSlots
// buckets; a level-0 bucket spans one wheelTick (= the clock
// resolution), level 1 spans wheelSlots ticks, level 2 wheelSlots²
// ticks, giving the wheel a ~4.4-minute horizon at the 1ms tick. Slots
// due beyond the horizon sit in the overflow list and are re-filed when
// the wheel's level-2 window wraps; slots already due sit in the due
// list, which every sweep tick examines.
const (
	wheelTick       = int64(clockResolution)
	wheelSlots      = 64
	wheelLevels     = 3
	wheelDueBucket  = wheelLevels * wheelSlots
	wheelOverflow   = wheelDueBucket + 1
	wheelNumBuckets = wheelOverflow + 1
	wheelJumpRescan = wheelSlots * wheelSlots // clock jumped past the L0+L1 horizon: rescan
	wheelHorizon    = wheelSlots * wheelSlots * wheelSlots
	wheelNoBucket   = int32(-1)
	wheelListEnd    = int32(-1)
)

// ttlWheel is one shard's hierarchical timing wheel. All state is
// guarded by the shard mutex. Links are intrusive: next/prev/where are
// indexed by slot (set*ways+way), so a slot is in at most one bucket and
// every operation is pointer surgery on preallocated arrays — the wheel
// never allocates after armTTL.
type ttlWheel struct {
	next, prev []int32
	where      []int32 // bucket the slot is linked into, wheelNoBucket when unlinked
	heads      [wheelNumBuckets]int32
	cur        int64 // last fully processed tick (deadline / wheelTick)
}

func newTTLWheel(slots int, nowTick int64) *ttlWheel {
	w := &ttlWheel{
		next:  make([]int32, slots),
		prev:  make([]int32, slots),
		where: make([]int32, slots),
		cur:   nowTick,
	}
	for i := range w.where {
		w.where[i] = wheelNoBucket
	}
	for i := range w.heads {
		w.heads[i] = wheelListEnd
	}
	return w
}

// bucketFor maps a deadline to the bucket that will examine it next.
func (w *ttlWheel) bucketFor(d int64) int32 {
	t := d / wheelTick
	delta := t - w.cur
	switch {
	case delta <= 0:
		return wheelDueBucket
	case delta < wheelSlots:
		return int32(t & (wheelSlots - 1))
	case delta < wheelSlots*wheelSlots:
		return int32(wheelSlots + (t>>6)&(wheelSlots-1))
	case delta < wheelHorizon:
		return int32(2*wheelSlots + (t>>12)&(wheelSlots-1))
	default:
		return wheelOverflow
	}
}

// link pushes slot onto the front of bucket b.
func (w *ttlWheel) link(slot, b int32) {
	w.prev[slot] = wheelListEnd
	w.next[slot] = w.heads[b]
	if h := w.heads[b]; h != wheelListEnd {
		w.prev[h] = slot
	}
	w.heads[b] = slot
	w.where[slot] = b
}

// unlink removes slot from whatever bucket holds it; a no-op when the
// slot is not linked (or the wheel was never armed).
func (w *ttlWheel) unlink(slot int32) {
	if w == nil || w.where[slot] == wheelNoBucket {
		return
	}
	if p := w.prev[slot]; p != wheelListEnd {
		w.next[p] = w.next[slot]
	} else {
		w.heads[w.where[slot]] = w.next[slot]
	}
	if n := w.next[slot]; n != wheelListEnd {
		w.prev[n] = w.prev[slot]
	}
	w.where[slot] = wheelNoBucket
}

// schedule (re)files slot under its new deadline, moving it between
// buckets if it was already linked. No-op when the wheel is not armed
// (then reclamation is purely lazy, as with WithTTLSweep(0) before).
func (w *ttlWheel) schedule(slot int32, d int64) {
	if w == nil {
		return
	}
	w.unlink(slot)
	w.link(slot, w.bucketFor(d))
}

// advanceWheelLocked moves the shard's wheel forward to now, expiring
// every linked slot whose deadline lapsed and cascading not-yet-due
// entries toward level 0. Expired pairs are appended to exK/exV for the
// caller to hand to OnExpire outside the lock; the return also counts
// the wheel entries visited. Caller holds sh.mu.
func (c *Cache[K, V]) advanceWheelLocked(sh *shard[K, V], now int64, exK []K, exV []V) ([]K, []V, int) {
	w := sh.wheel
	if w == nil {
		return exK, exV, 0
	}
	visited := 0
	tNow := now / wheelTick
	switch {
	case tNow-w.cur > wheelJumpRescan:
		// The clock jumped far past the fine levels (a test clock, or a
		// sweeper that was starved for minutes): re-examine everything
		// once instead of replaying millions of empty ticks.
		w.cur = tNow
		for b := int32(0); b < wheelNumBuckets; b++ {
			exK, exV = c.wheelVisit(sh, b, now, &visited, exK, exV)
		}
		return exK, exV, visited
	case tNow > w.cur:
		for w.cur < tNow {
			w.cur++
			cur := w.cur
			if cur&(wheelSlots-1) == 0 {
				// Entering a new level-1 window: pull its bucket down.
				c.wheelRefile(sh, int32(wheelSlots+(cur>>6)&(wheelSlots-1)))
				if cur&(wheelSlots*wheelSlots-1) == 0 {
					c.wheelRefile(sh, int32(2*wheelSlots+(cur>>12)&(wheelSlots-1)))
					if cur&(wheelHorizon-1) == 0 {
						c.wheelRefile(sh, wheelOverflow)
					}
				}
			}
			exK, exV = c.wheelVisit(sh, int32(cur&(wheelSlots-1)), now, &visited, exK, exV)
		}
	}
	exK, exV = c.wheelVisit(sh, wheelDueBucket, now, &visited, exK, exV)
	return exK, exV, visited
}

// wheelVisit walks bucket b, expiring slots whose deadline lapsed and
// moving the rest toward their correct bucket (entries that are not yet
// due stay parked in the due list until they are). The walk captures
// each next pointer before mutating, so re-filed entries pushed onto a
// bucket front are not revisited.
func (c *Cache[K, V]) wheelVisit(sh *shard[K, V], b int32, now int64, visited *int, exK []K, exV []V) ([]K, []V) {
	w := sh.wheel
	for slot := w.heads[b]; slot != wheelListEnd; {
		nxt := w.next[slot]
		*visited++
		if d := sh.deadline[slot]; d <= now {
			set, way := int(slot)/c.ways, int(slot)%c.ways
			k, v := c.expireLocked(sh, set, way) // clearSlotLocked unlinks
			exK = append(exK, k)
			exV = append(exV, v)
		} else if nb := w.bucketFor(d); nb != b {
			w.unlink(slot)
			w.link(slot, nb)
		}
		slot = nxt
	}
	return exK, exV
}

// wheelRefile cascades bucket b: every entry moves to the bucket its
// deadline now maps to (level 0, or the due list if it lapsed — the due
// walk at the end of the advance expires it).
func (c *Cache[K, V]) wheelRefile(sh *shard[K, V], b int32) {
	w := sh.wheel
	for slot := w.heads[b]; slot != wheelListEnd; {
		nxt := w.next[slot]
		if nb := w.bucketFor(sh.deadline[slot]); nb != b {
			w.unlink(slot)
			w.link(slot, nb)
		}
		slot = nxt
	}
}

// now returns the TTL clock reading. The common case — no WithNow — is a
// nil check plus one atomic load, small enough to inline into the lookup
// hot path; an indirect call happens only when the caller supplied its
// own clock.
func (c *Cache[K, V]) now() int64 {
	if c.nowFn != nil {
		return c.nowFn()
	}
	return c.coarse.Load()
}

// armTTL starts the TTL machinery on first use (construction with a
// default TTL, or the first SetTTL/SetTenantTTL/SetTenantDefaultTTL
// call): the per-slot deadline arrays and timing wheels, the coarse
// clock goroutine — unless WithNow supplied one — and the sweeper,
// unless sweeping is disabled. Idempotent and cheap after the first call.
func (c *Cache[K, V]) armTTL() {
	c.ttlArm.Do(func() {
		if c.nowFn == nil {
			// The coarse clock was last stored at New and has been idle
			// since; catch it up before the first deadline is computed
			// from it, or a TTL shorter than the cache's age would be
			// born already expired.
			c.coarse.Store(time.Now().UnixNano())
		}
		nowTick := c.now() / wheelTick
		// Allocate the per-slot deadline arrays and wheels now that TTLs
		// exist. A deadline is only ever read for a slot whose per-set
		// ttl bit is set, and every such read holds the shard lock this
		// allocation takes, so no reader sees a set bit before the array.
		for i := range c.shards {
			sh := &c.shards[i]
			sh.mu.Lock()
			sh.deadline = make([]int64, c.sets*c.ways)
			sh.wheel = newTTLWheel(c.sets*c.ways, nowTick)
			sh.mu.Unlock()
		}
		if c.nowFn == nil {
			c.goBG(c.clockLoop)
		}
		if c.sweepInterval > 0 {
			c.goBG(c.sweepLoop)
		}
	})
}

// goBG spawns a background goroutine tracked by the WaitGroup, unless the
// cache is already closed (a lazy TTL arm can race Close). The bgMu
// ordering guarantees Close never observes a spawn after its bg.Wait
// began: either the spawn sees closed and does nothing, or Close's Wait
// sees the incremented counter.
func (c *Cache[K, V]) goBG(fn func()) {
	c.bgMu.Lock()
	defer c.bgMu.Unlock()
	if c.closed {
		return
	}
	c.bg.Add(1)
	go fn()
}

// clockLoop advances the coarse TTL clock until Close.
func (c *Cache[K, V]) clockLoop() {
	defer c.bg.Done()
	t := time.NewTicker(clockResolution)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.coarse.Store(time.Now().UnixNano())
		}
	}
}

// sweepLoop runs the timing-wheel sweeper until Close. Under memory
// pressure (WithMaxBytes ladder ≥ aggressive) the tick shortens to
// pressureInterval so expired bytes come back faster; the ticker is
// re-armed only when the desired cadence actually changes, so without a
// pressure ladder the loop keeps the plain fixed-period ticker (missed
// ticks stay pending rather than sliding later, which matters on
// starved single-core hosts).
func (c *Cache[K, V]) sweepLoop() {
	defer c.bg.Done()
	cur := c.pressureInterval(c.sweepInterval)
	t := time.NewTicker(cur)
	defer t.Stop()
	var exK []K
	var exV []V
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			exK, exV = c.sweepOnce(exK, exV)
			if want := c.pressureInterval(c.sweepInterval); want != cur {
				cur = want
				t.Reset(cur)
			}
		}
	}
}

// sweepOnce runs one sweeper tick over every lock domain: advance the
// wheel, reclaim due entries, run OnExpire outside the lock. A domain whose
// mutex is contended is skipped — the data plane owns it right now, and
// whatever was due stays linked for the next tick — with the skip
// surfaced through SweepEvent.Skipped. The exK/exV buffers are reused
// tick to tick so steady-state sweeping does not allocate.
func (c *Cache[K, V]) sweepOnce(exK []K, exV []V) ([]K, []V) {
	now := c.now()
	expired, visited, skipped := 0, 0, 0
	for i := range c.shards {
		sh := &c.shards[i]
		if !sh.mu.TryLock() {
			skipped++
			continue
		}
		var vis int
		exK, exV, vis = c.advanceWheelLocked(sh, now, exK[:0], exV[:0])
		sh.mu.Unlock()
		visited += vis
		expired += len(exK)
		for j := range exK {
			if c.onExpire != nil {
				c.onExpire(exK[j], exV[j])
			}
		}
		clear(exK)
		clear(exV)
	}
	if expired > 0 {
		c.nSweepExpired.Add(uint64(expired))
	}
	if skipped > 0 {
		c.nSweepSkipped.Add(uint64(skipped))
	}
	if (expired > 0 || skipped > 0) && c.sink.Sweep != nil {
		c.sink.Sweep(SweepEvent{Visited: visited, Expired: expired, Skipped: skipped})
	}
	// Sweeping is what drains the gauge while writes are being shed (an
	// OOM-gated caller never reaches the set path that would notice the
	// recovery), so the ladder must be re-examined here.
	c.checkPressure()
	return exK[:0], exV[:0]
}

// autoRebalanceLoop drives rebalance(auto) every WithAutoRebalance
// interval until Close. Like the sweeper, the tick shortens under
// memory pressure so budget-violating quotas are corrected promptly,
// re-arming the ticker only on a cadence change.
func (c *Cache[K, V]) autoRebalanceLoop() {
	defer c.bg.Done()
	cur := c.pressureInterval(c.autoInterval)
	t := time.NewTicker(cur)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			// The only possible error is an invalid computed allocation,
			// which would be a bug surfaced by tests, not a runtime
			// condition a background loop can act on.
			_, _, _ = c.rebalance(true)
			if want := c.pressureInterval(c.autoInterval); want != cur {
				cur = want
				t.Reset(cur)
			}
		}
	}
}

// Close stops the cache's background goroutines (coarse clock, sweeper,
// auto-rebalance ticker) and waits for them to exit. The cache itself
// remains usable for data-plane operations, but with the built-in clock
// stopped entries no longer expire and quotas no longer adjust on their
// own. Close is idempotent and always returns nil (the error return
// satisfies io.Closer).
func (c *Cache[K, V]) Close() error {
	c.bgMu.Lock()
	if !c.closed {
		c.closed = true
		close(c.stop)
	}
	c.bgMu.Unlock()
	c.bg.Wait()
	return nil
}

// defaultDeadline returns the expiry instant for an entry tenant inserts
// now without an explicit TTL: the tenant's SetTenantDefaultTTL override
// if one is set, else the cache-wide WithDefaultTTL, else 0 (no expiry).
func (c *Cache[K, V]) defaultDeadline(tenant int) int64 {
	ttl := c.tenantTTL[tenant].Load()
	if ttl == 0 {
		ttl = c.ttlDefault
	}
	if ttl == 0 {
		return 0
	}
	return c.now() + ttl
}

// deadlineFor converts a per-entry TTL into an expiry instant: ttl > 0
// expires after ttl, ttl == 0 never expires (overriding any default), and
// ttl < 0 yields an already-lapsed deadline (the entry is reclaimed on
// its next touch or sweep).
func (c *Cache[K, V]) deadlineFor(ttl time.Duration) int64 {
	if ttl == 0 {
		return 0
	}
	return c.now() + int64(ttl)
}

// SetTenantDefaultTTL overrides the cache-wide default TTL for one
// tenant: entries the tenant inserts without an explicit TTL (SetTenant,
// Set, SetBatch) expire after d. d == 0 removes the override (the
// WithDefaultTTL value, if any, applies again); d must not be negative.
// Entries already resident keep their deadlines — the override applies
// to subsequent inserts, like WithDefaultTTL itself.
func (c *Cache[K, V]) SetTenantDefaultTTL(tenant int, d time.Duration) error {
	c.checkTenant(tenant)
	if d < 0 {
		return fmt.Errorf("cpacache: tenant default TTL must be >= 0, got %v", d)
	}
	if d > 0 {
		c.armTTL()
	}
	c.tenantTTL[tenant].Store(int64(d))
	return nil
}

// TenantDefaultTTL returns the tenant's SetTenantDefaultTTL override, or
// 0 when the tenant uses the cache-wide default.
func (c *Cache[K, V]) TenantDefaultTTL(tenant int) time.Duration {
	c.checkTenant(tenant)
	return time.Duration(c.tenantTTL[tenant].Load())
}

// SetTenantTTL inserts or updates key → value on behalf of tenant with an
// explicit TTL, overriding any default for this entry: ttl > 0 expires
// the entry after ttl, ttl == 0 pins it (no expiry), ttl < 0 inserts it
// already expired. Quota enforcement, eviction, hard-budget enforcement
// and callbacks behave exactly as SetTenant, including the
// ErrEntryTooLarge rejection under WithHardBudgets/WithMaxBytes.
func (c *Cache[K, V]) SetTenantTTL(tenant int, key K, value V, ttl time.Duration) error {
	c.checkTenant(tenant)
	// A ttl of 0 pins the entry — no deadline will ever be stored, so a
	// TTL-free cache doesn't pay for the clock, sweeper and deadline
	// arrays just because a caller pins defensively.
	if ttl != 0 {
		c.armTTL()
	}
	return c.setWithDeadline(tenant, key, value, c.deadlineFor(ttl))
}

// SetTTL re-arms the TTL of an already-resident entry: ttl > 0 expires it
// after ttl from now, ttl == 0 removes its deadline, ttl < 0 marks it
// already expired. It reports whether the key was resident and live; a
// key whose previous TTL had already lapsed is reclaimed and false is
// returned. The entry's value, owner and recency are untouched.
func (c *Cache[K, V]) SetTTL(key K, ttl time.Duration) bool {
	if ttl != 0 {
		c.armTTL() // a 0 pin never stores a deadline: no machinery needed
	}
	sh, set, tag := c.locate(key)
	base := set * c.ways
	tbase := c.tagBase(set)

	sh.mu.Lock()
	w := c.findLocked(sh, base, tbase, tag, key)
	if w < 0 {
		sh.mu.Unlock()
		return false
	}
	if sh.ttl[set]&(1<<uint(w)) != 0 && sh.deadline[base+w] <= c.now() {
		exK, exV := c.expireLocked(sh, set, w)
		sh.mu.Unlock()
		if c.onExpire != nil {
			c.onExpire(exK, exV)
		}
		return false
	}
	if dl := c.deadlineFor(ttl); dl != 0 {
		sh.ttl[set] |= 1 << uint(w)
		sh.deadline[base+w] = dl
		sh.wheel.schedule(int32(base+w), dl)
	} else if sh.ttl[set]&(1<<uint(w)) != 0 {
		sh.ttl[set] &^= 1 << uint(w)
		sh.wheel.unlink(int32(base + w))
	}
	sh.mu.Unlock()
	return true
}

// TTL reports the remaining time to live of key without refreshing its
// recency: present is false when the key is absent — including when its
// deadline already lapsed, in which case the entry is reclaimed exactly
// as a lookup would reclaim it — and hasTTL is false when the entry is
// resident but carries no deadline (it lives until displaced or
// deleted). remaining is positive only when present and hasTTL are both
// true. This is the query behind a wire protocol's TTL/PTTL/EXISTS
// commands: an existence or expiry probe must not perturb the
// replacement state the way GetTenant's touch would, and it records no
// hit/miss statistics for the same reason.
func (c *Cache[K, V]) TTL(key K) (remaining time.Duration, hasTTL, present bool) {
	sh, set, tag := c.locate(key)
	base := set * c.ways
	tbase := c.tagBase(set)

	sh.mu.Lock()
	w := c.findLocked(sh, base, tbase, tag, key)
	if w < 0 {
		sh.mu.Unlock()
		return 0, false, false
	}
	if sh.ttl[set]&(1<<uint(w)) == 0 {
		sh.mu.Unlock()
		return 0, false, true
	}
	dl := sh.deadline[base+w]
	now := c.now()
	if dl <= now {
		exK, exV := c.expireLocked(sh, set, w)
		sh.mu.Unlock()
		if c.onExpire != nil {
			c.onExpire(exK, exV)
		}
		return 0, false, false
	}
	sh.mu.Unlock()
	return time.Duration(dl - now), true, true
}

// SetBudgets installs per-tenant byte budgets (len must equal Tenants();
// 0 = unlimited; nil clears all budgets). Budgets require a WithCost
// function — without one the cache has no byte measurements to enforce.
// By default budgets steer the partitioning rather than hard-limiting
// bytes: at each Rebalance (manual or auto) the budgets are translated
// into per-tenant way caps from the tenant's observed bytes-per-way, and
// the allocation never hands a tenant more ways than its budget
// supports, whatever the policy; a tenant over budget because its entries
// grew is pulled back at the next rebalance. Under WithHardBudgets the
// budgets are additionally enforced on the write path itself — see that
// option for the evict-on-write semantics.
func (c *Cache[K, V]) SetBudgets(budgets []uint64) error {
	if budgets == nil {
		c.quotaMu.Lock()
		c.budgets = nil
		c.quotaMu.Unlock()
		if c.budgetAtomic != nil {
			for t := range c.budgetAtomic {
				c.budgetAtomic[t].Store(0)
			}
		}
		return nil
	}
	if c.costFn == nil {
		return fmt.Errorf("cpacache: SetBudgets requires a WithCost function")
	}
	if len(budgets) != c.tenants {
		return fmt.Errorf("cpacache: got %d budgets for %d tenants", len(budgets), c.tenants)
	}
	c.quotaMu.Lock()
	c.budgets = append(c.budgets[:0], budgets...)
	c.quotaMu.Unlock()
	// Mirror into the lock-free copy the write path's enforcement checks
	// read (costFn != nil guarantees the mirror was allocated at New).
	for t, b := range budgets {
		c.budgetAtomic[t].Store(b)
	}
	return nil
}

// Budgets returns a copy of the installed per-tenant byte budgets, or nil
// when none are set.
func (c *Cache[K, V]) Budgets() []uint64 {
	c.quotaMu.Lock()
	defer c.quotaMu.Unlock()
	if c.budgets == nil {
		return nil
	}
	return append([]uint64(nil), c.budgets...)
}
