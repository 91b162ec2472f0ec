// Package cpacache is a generic, sharded, goroutine-safe in-process cache
// whose eviction engine is the pseudo-LRU policy machinery of
// repro/pkg/plru and whose multi-tenant quota enforcement is the
// way-partitioning scheme of Kedzierski et al., "Adapting cache
// partitioning algorithms to pseudo-LRU replacement policies" (IPDPS
// 2010): each tenant owns a quota of ways per set, enforced through
// replacement masks at victim-selection time, while hits remain global —
// exactly the paper's "global replacement masks" design, in software.
//
// A Cache is built with functional options:
//
//	c, err := cpacache.New[string, []byte](
//	        cpacache.WithShards(8),
//	        cpacache.WithSets(1024),
//	        cpacache.WithWays(16),
//	        cpacache.WithPolicy(plru.BT),
//	        cpacache.WithPartitions(3),
//	        cpacache.WithOnEvict(func(k string, v []byte) { pool.Put(v) }),
//	)
//
// Tenant quotas start as an even split and can be changed at any time with
// SetQuotas, or rebalanced online from the observed per-tenant hit curves
// with Rebalance, which runs the paper's exact MinMisses allocator from
// repro/pkg/cpapart over stack-distance profiles sampled UMON-style on a
// subset of sets.
//
// All methods are safe for concurrent use and the per-operation hot
// paths perform no heap allocation. Set probes resolve through a packed
// per-set tag word (one hash byte per way, matched with branch-free SWAR
// scans — see tags.go) the way a hardware cache resolves a parallel tag
// match, falling back to full key comparison only on tag hits. Each
// configured shard is split into contiguous, independently locked set
// ranges (lock domains, see domainSplit), so two cores rarely want the
// same mutex. Every operation, lookups included, takes exactly one domain
// mutex, and a hit touches the policy's recency state under it;
// partitioning stays off the hit path, because masks only constrain
// victim selection. GetBatch and SetBatch are per-key loops over
// GetTenant and SetTenant, TTL expiry is driven by a hierarchical timing
// wheel that visits only due entries (lifecycle.go), and Rebalance
// reuses control-plane scratch so steady-state repartitioning stays
// allocation-free.
package cpacache

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/cpapart"
	"repro/pkg/plru"
)

// Cache is a sharded, set-associative, partition-aware in-process cache.
// The zero value is not usable; construct with New.
type Cache[K comparable, V any] struct {
	// shards holds the lock domains: each configured shard split into
	// 1<<splitBits contiguous ranges of sets sets each (see place).
	shards  []shard[K, V]
	seed    maphash.Seed
	sets    int // per lock domain
	ways    int
	tenants int
	policy  plru.Kind
	onEvict func(K, V)

	shardMask uint64 // configured shards-1
	setMask   uint64 // configured sets-1 when a power of two, else 0
	splitBits uint   // log2(domains per configured shard)
	localBits uint   // log2(sets) when setMask != 0
	waysMask  uint64 // low `ways` bits set
	tagWords  int    // packed tag words per set

	// batchPool recycles the callback buffers of budget enforcement
	// (batch.go) so steady-state enforcing writes do not allocate.
	batchPool sync.Pool

	// TTL state (lifecycle.go). The TTL clock is either the user's WithNow
	// function (nowFn non-nil) or a load of the coarse atomic the internal
	// clock goroutine advances — see now(), which inlines the common
	// atomic-load case. The clock is only consulted for slots whose
	// per-set ttl bit is set, so caches without TTLs never read it on the
	// hot path. ttlDefault is WithDefaultTTL in nanoseconds (0 = none);
	// tenantTTL[t] is the SetTenantDefaultTTL override (0 = use the
	// cache-wide default), read atomically on the Set path.
	ttlDefault int64
	tenantTTL  []atomic.Int64
	nowFn      func() int64
	coarse     atomic.Int64
	ttlArm     sync.Once

	// callbacks and cost accounting (type-asserted in New).
	onExpire func(K, V)
	costFn   func(K, V) uint64

	// background goroutine lifecycle (clock, sweeper, auto-rebalance).
	// bgMu orders goroutine spawns against Close: spawns check closed
	// under it, and Close flips closed under it before bg.Wait, so a
	// lazy TTL arm racing Close can neither trip the WaitGroup's
	// Add-during-Wait panic nor leak a goroutine past Close.
	stop          chan struct{}
	bg            sync.WaitGroup
	bgMu          sync.Mutex
	closed        bool
	sweepInterval time.Duration
	autoInterval  time.Duration

	// auto-rebalance hysteresis and lifecycle counters.
	hysteresis     float64
	minSamples     uint64
	sink           MetricsSink
	nRebalanced    atomic.Uint64
	nRebalanceSkip atomic.Uint64
	nSweepExpired  atomic.Uint64
	nSweepSkipped  atomic.Uint64

	// quotaMu serializes quota changes (SetQuotas / Rebalance / budget
	// updates); shard locks alone protect the per-shard mask copies. The
	// ctl* fields are control-plane scratch guarded by quotaMu: Rebalance
	// and SetQuotas reuse them so steady-state repartitioning does not
	// allocate. budgets holds the SetBudgets byte budgets (nil = none).
	quotaMu   sync.Mutex
	quotas    []int
	budgets   []uint64
	ctlCurves [][]uint64
	ctlAlloc  cpapart.Allocation
	ctlMasks  []plru.WayMask
	ctlBlocks []cpapart.Block
	ctlDP     cpapart.Scratch
	ctlCaps   []int
	ctlBytes  []uint64
	ctlBPW    []uint64

	// Policy auto-selection (autoselect.go). activeKinds is nil unless
	// WithPolicyAutoSelect was given; polByTenant[t] indexes activeKinds
	// and is guarded by quotaMu (the per-shard routing copies live in
	// shard.multi.byTenant). The ctlShadow* slices are decision scratch.
	activeKinds   []plru.Kind
	polByTenant   []int
	ctlShadowHits [][]uint64
	ctlShadowAcc  []uint64
	nPolSwitch    atomic.Uint64

	// Memory governor (governor.go). gaugeTenant/gaugeTotal are atomic
	// mirrors of the per-domain TenantStats.Bytes parts, allocated and
	// updated only under a hard limit (WithMaxBytes, WithHardBudgets),
	// the one reader that needs cross-domain totals without locks.
	// budgetAtomic mirrors the SetBudgets values so the write hot path
	// never takes quotaMu. maxBytes/hardBudgets are immutable after New;
	// highBytes/lowBytes are the watermark thresholds in bytes (0 =
	// ladder off); pressure holds the current PressureState, transitions
	// serialized by pressureMu.
	maxBytes          uint64
	hardBudgets       bool
	highBytes         uint64
	lowBytes          uint64
	gaugeTenant       []atomic.Int64
	gaugeTotal        atomic.Int64
	budgetAtomic      []atomic.Uint64
	pressure          atomic.Int32
	pressureMu        sync.Mutex
	nBudgetEvict      atomic.Uint64
	nBudgetEvictBytes atomic.Uint64
}

// shard is one lock domain: sets×ways slots plus its own policy
// instance, TTL wheel and UMON-style profiler. Every field except live is
// guarded by mu.
type shard[K comparable, V any] struct {
	mu sync.Mutex
	// pol is the shard's replacement policy: one plru.New instance, or
	// under WithPolicyAutoSelect the candidate bank multi (autoselect.go),
	// which is the same value kept typed for the control plane's routing
	// updates. shadow is the candidate-scoring directory, nil unless
	// auto-selection is on.
	pol    plru.Policy
	multi  *multiPol
	shadow *shadowDir
	tags   []uint64 // tagWords words per set: packed tag bytes (tags.go)
	keys   []K
	vals   []V
	owner  []int16 // tenant that filled the slot, -1 when empty
	masks  []plru.WayMask
	live   atomic.Int64 // written under mu, read lock-free by Len
	prof   profiler[K]

	// stats holds one cache-line-padded counter cell per tenant: lookups
	// and fills write them, and the cells of different domains must not
	// share a line two cores write under two different mutexes.
	stats []statCell

	// TTL state: ttl[set] has bit w set iff the slot at (set, way w)
	// carries a deadline, so the hot path pays one word test before ever
	// loading a deadline; deadline[slot] is the expiry instant in the
	// cache clock's nanoseconds (meaningful only when the bit is set).
	ttl      []uint64
	deadline []int64
	// cost[slot] is the WithCost measurement taken at fill time (nil
	// when cost accounting is off). wheel is the hierarchical TTL
	// timing wheel (lifecycle.go), allocated on first TTL use.
	cost  []uint64
	wheel *ttlWheel

	_ [8]uint64 // keep adjacent shards off one another's cache lines
}

// statCell is one tenant's counters in one domain, padded to a cache
// line (see the shard.stats comment).
type statCell struct {
	TenantStats
	_ [2]uint64
}

// tagBase returns the index of the set's first packed tag word in
// sh.tags.
func (c *Cache[K, V]) tagBase(set int) int { return set * c.tagWords }

// setTag stores the tag byte of `way` into the set's packed tag words
// rooted at tbase (= tagBase(set)).
func (sh *shard[K, V]) setTag(tbase, way int, tag uint8) {
	shift := uint(way&7) * 8
	w := &sh.tags[tbase+way>>3]
	*w = *w&^(0xFF<<shift) | uint64(tag)<<shift
}

// TenantStats counts one tenant's cache traffic. Hits, Misses, Evictions
// and Expirations are monotonic counters; Bytes is a gauge of the
// tenant's currently resident cost (only maintained under WithCost).
type TenantStats struct {
	Hits        uint64
	Misses      uint64
	Evictions   uint64 // lines this tenant had inserted that were displaced live
	Expirations uint64 // lines this tenant had inserted that were reclaimed after their TTL
	// BudgetEvictions counts lines this tenant had inserted that the
	// memory governor evicted to satisfy a hard byte budget (governor.go)
	// — displacement the byte envelope forced, distinct from the
	// capacity Evictions a full set forces.
	BudgetEvictions uint64
	Bytes           uint64 // resident WithCost total for lines this tenant inserted
}

// add accumulates o into s (per-domain Bytes parts sum to UsedBytes).
func (s *TenantStats) add(o TenantStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Expirations += o.Expirations
	s.BudgetEvictions += o.BudgetEvictions
	s.Bytes += o.Bytes
}

// HitRate returns Hits/(Hits+Misses), or 0 before any access.
func (s TenantStats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// New builds a Cache from the options. The defaults are 1 shard, 64 sets,
// 8 ways, plru.BT replacement and a single tenant owning every way.
//
// Caches built with background features — a default TTL or SetTTL use
// (clock + sweeper goroutines) or WithAutoRebalance (ticker goroutine) —
// should be released with Close when no longer needed.
func New[K comparable, V any](opts ...Option) (*Cache[K, V], error) {
	s, err := newSettings(opts)
	if err != nil {
		return nil, err
	}
	var onEvict, onExpire func(K, V)
	var costFn func(K, V) uint64
	if s.onEvict != nil {
		fn, ok := s.onEvict.(func(K, V))
		if !ok {
			return nil, fmt.Errorf("cpacache: WithOnEvict callback is %T, want func(K, V) matching the cache's type parameters", s.onEvict)
		}
		onEvict = fn
	}
	if s.onExpire != nil {
		fn, ok := s.onExpire.(func(K, V))
		if !ok {
			return nil, fmt.Errorf("cpacache: WithOnExpire callback is %T, want func(K, V) matching the cache's type parameters", s.onExpire)
		}
		onExpire = fn
	}
	if s.costFn != nil {
		fn, ok := s.costFn.(func(K, V) uint64)
		if !ok {
			return nil, fmt.Errorf("cpacache: WithCost function is %T, want func(K, V) uint64 matching the cache's type parameters", s.costFn)
		}
		costFn = fn
	}
	splitBits := domainSplit(s)
	c := &Cache[K, V]{
		shards:        make([]shard[K, V], s.shards<<splitBits),
		seed:          maphash.MakeSeed(),
		sets:          s.sets >> splitBits,
		ways:          s.ways,
		tenants:       s.tenants,
		policy:        s.policy,
		onEvict:       onEvict,
		onExpire:      onExpire,
		costFn:        costFn,
		shardMask:     uint64(s.shards - 1),
		splitBits:     splitBits,
		waysMask:      uint64(plru.Full(s.ways)),
		tagWords:      tagWordsFor(s.ways),
		quotas:        evenQuotas(s.tenants, s.ways),
		ttlDefault:    int64(s.defaultTTL),
		stop:          make(chan struct{}),
		sweepInterval: s.sweepInterval,
		autoInterval:  s.autoRebalance,
		hysteresis:    s.hysteresis,
		minSamples:    s.minSamples,
		sink:          s.sink,
		maxBytes:      s.maxBytes,
		hardBudgets:   s.hardBudgets,
	}
	if costFn != nil {
		c.budgetAtomic = make([]atomic.Uint64, s.tenants)
	}
	if c.enforcing() {
		c.gaugeTenant = make([]atomic.Int64, s.tenants)
	}
	if s.maxBytes > 0 {
		hi, lo := s.highMark, s.lowMark
		if hi == 0 && lo == 0 {
			hi, lo = defaultHighWatermark, defaultLowWatermark
		}
		c.highBytes = uint64(float64(s.maxBytes) * hi)
		c.lowBytes = uint64(float64(s.maxBytes) * lo)
		// Degenerate tiny caps still get a working ladder: high >= 1 so
		// OOM is reachable, low < high so OOM is escapable.
		if c.highBytes == 0 {
			c.highBytes = 1
		}
		if c.lowBytes >= c.highBytes {
			c.lowBytes = c.highBytes - 1
		}
	}
	if s.nowFn != nil {
		c.nowFn = s.nowFn
	} else {
		c.coarse.Store(time.Now().UnixNano())
	}
	if s.sets&(s.sets-1) == 0 {
		c.setMask = uint64(s.sets - 1)
		c.localBits = uint(bits.TrailingZeros(uint(c.sets)))
	}
	c.tenantTTL = make([]atomic.Int64, s.tenants)
	c.ctlCurves = make([][]uint64, s.tenants)
	curveBuf := make([]uint64, s.tenants*(s.ways+1))
	for t := range c.ctlCurves {
		c.ctlCurves[t] = curveBuf[t*(s.ways+1) : (t+1)*(s.ways+1)]
	}
	c.ctlMasks = make([]plru.WayMask, s.tenants)
	if s.autoselect {
		c.activeKinds = s.candidates
		c.polByTenant = make([]int, s.tenants)
		baseIdx := 0
		for i, k := range c.activeKinds {
			if k == s.policy {
				baseIdx = i
			}
		}
		for t := range c.polByTenant {
			c.polByTenant[t] = baseIdx
		}
		c.ctlShadowHits = make([][]uint64, len(c.activeKinds))
		for k := range c.ctlShadowHits {
			c.ctlShadowHits[k] = make([]uint64, s.tenants)
		}
		c.ctlShadowAcc = make([]uint64, s.tenants)
	}
	sets := c.sets
	for i := range c.shards {
		sh := &c.shards[i]
		sh.tags = make([]uint64, sets*c.tagWords)
		sh.keys = make([]K, sets*s.ways)
		sh.vals = make([]V, sets*s.ways)
		sh.owner = make([]int16, sets*s.ways)
		for j := range sh.owner {
			sh.owner[j] = -1
		}
		sh.masks = make([]plru.WayMask, s.tenants)
		sh.stats = make([]statCell, s.tenants)
		// One TTL word per set is always present (the hot path tests it
		// unconditionally); the sets×ways deadline array and the timing
		// wheel are allocated lazily by armTTL, so TTL-free caches never
		// carry them.
		sh.ttl = make([]uint64, sets)
		if costFn != nil {
			sh.cost = make([]uint64, sets*s.ways)
		}
		// The profiler samples by the set's index in its configured
		// shard, so the sampled sets do not depend on the split.
		first := (i & (1<<splitBits - 1)) * sets
		sh.prof.init(sets, s.ways, s.tenants, min(s.sampleEvery, s.sets), first)
		if s.autoselect {
			sh.multi = newMultiPol(c.activeKinds, c.polByTenant[0], sets, s.ways, s.tenants, s.seed+uint64(i))
			sh.pol = sh.multi
			sh.shadow = newShadowDir(c.activeKinds, sh.prof.sampledCount, s.tenants, s.ways, s.seed+uint64(i))
		} else {
			sh.pol = plru.New(s.policy, sets, s.ways, s.tenants, s.seed+uint64(i))
		}
	}
	if err := c.SetQuotas(c.quotas); err != nil {
		return nil, err
	}
	if c.ttlDefault > 0 {
		c.armTTL()
	}
	if c.autoInterval > 0 {
		c.goBG(c.autoRebalanceLoop)
	}
	return c, nil
}

// evenQuotas splits ways evenly, remainder to lower tenant ids (the Fair
// allocator's layout).
func evenQuotas(tenants, ways int) []int {
	q := make([]int, tenants)
	for i := range q {
		q[i] = ways / tenants
	}
	for i := 0; i < ways%tenants; i++ {
		q[i]++
	}
	return q
}

// Lock-domain geometry: New splits every configured shard into
// power-of-two many contiguous set ranges until the cache has at least
// minDomains domains, but never below minDomainSets sets per domain.
const (
	minDomains    = 64
	minDomainSets = 16
)

// domainSplit returns log2 of the number of lock domains per configured
// shard. Replacement state is per set, so regrouping sets under finer
// locks changes nothing any set does — except for NRU, whose
// replacement pointer is shared by every set of a policy instance: a
// cache that runs NRU, like one with a modulo set mapping, stays unsplit.
func domainSplit(s settings) uint {
	if s.sets&(s.sets-1) != 0 || s.policy == plru.NRU || slices.Contains(s.candidates, plru.NRU) {
		return 0
	}
	split := uint(0)
	for s.shards<<split < minDomains && s.sets>>(split+1) >= minDomainSets {
		split++
	}
	return split
}

// place maps a key hash to its lock domain and its set within it. The
// configured shard comes from the low hash bits and the configured set
// from bits 32 up (by mask, or by modulo for set counts that are not a
// power of two, which are never split); domain shard<<splitBits |
// set>>localBits holds that set at local index set&(sets-1). The map is
// a bijection, so every key keeps the set and way it had unsplit.
func (c *Cache[K, V]) place(h uint64) (int, int) {
	if c.setMask == 0 {
		return int(h & c.shardMask), int((h >> 32) % uint64(c.sets))
	}
	set := (h >> 32) & c.setMask
	return int((h&c.shardMask)<<c.splitBits | set>>c.localBits), int(set & uint64(c.sets-1))
}

// locate splits a key's hash into its lock domain, set index and tag byte.
func (c *Cache[K, V]) locate(key K) (*shard[K, V], int, uint8) {
	h := maphash.Comparable(c.seed, key)
	d, set := c.place(h)
	return &c.shards[d], set, tagOf(h)
}

func (c *Cache[K, V]) checkTenant(tenant int) {
	if tenant < 0 || tenant >= c.tenants {
		panic(fmt.Sprintf("cpacache: tenant %d out of range [0,%d)", tenant, c.tenants))
	}
}

// findLocked resolves key within one set using the packed tag words: only
// ways whose tag byte matches are confirmed with a full key comparison.
// Returns the way index or -1. Caller holds sh.mu.
func (c *Cache[K, V]) findLocked(sh *shard[K, V], base, tbase int, tag uint8, key K) int {
	for j := 0; j < c.tagWords; j++ {
		for m := matchTag(sh.tags[tbase+j], tag); m != 0; m &= m - 1 {
			w := j*8 + markWay(bits.TrailingZeros64(m))
			if sh.keys[base+w] == key {
				return w
			}
		}
	}
	return -1
}

// emptyWaysLocked returns the mask of empty ways of the set rooted at
// tbase, from a zero-byte scan of the packed tag words. Caller holds sh.mu.
func (c *Cache[K, V]) emptyWaysLocked(sh *shard[K, V], tbase int) uint64 {
	e := uint64(0)
	for j := 0; j < c.tagWords; j++ {
		e |= byteMarksToBits(zeroBytes(sh.tags[tbase+j])) << (8 * j)
	}
	return e & c.waysMask
}

// Get looks up key on behalf of tenant 0.
func (c *Cache[K, V]) Get(key K) (V, bool) { return c.GetTenant(0, key) }

// Set inserts or updates key on behalf of tenant 0. The error is always
// nil unless a hard byte limit is configured — see SetTenant.
func (c *Cache[K, V]) Set(key K, value V) error { return c.SetTenant(0, key, value) }

// GetTenant looks up key on behalf of the given tenant. A hit refreshes
// the line's recency regardless of which tenant inserted it (hits are
// global, as in the paper); a miss only records stats and the profile —
// the caller decides whether to SetTenant the value afterwards.
//
// The lookup holds the key's domain mutex throughout: it records the
// profile on sampled sets, probes the tag words, reclaims a line whose
// TTL lapsed, and applies the policy's Touch on a hit.
func (c *Cache[K, V]) GetTenant(tenant int, key K) (V, bool) {
	c.checkTenant(tenant)
	sh, set, tag := c.locate(key)
	base := set * c.ways
	tbase := c.tagBase(set)

	sh.mu.Lock()
	if sh.prof.isSampled(set) {
		sh.prof.record(set, tenant, key)
		if sh.shadow != nil {
			sh.shadow.access(int(sh.prof.slot[set]), tenant, tag)
		}
	}
	// Probe is inlined here (not findLocked) to keep the path free of
	// call overhead: one SWAR match per tag word, then key-confirm. The
	// TTL test costs one word load when the slot carries no deadline; the
	// clock is only consulted when it does.
	for j := 0; j < c.tagWords; j++ {
		for m := matchTag(sh.tags[tbase+j], tag); m != 0; m &= m - 1 {
			w := j*8 + markWay(bits.TrailingZeros64(m))
			if sh.keys[base+w] == key {
				if sh.ttl[set]&(1<<uint(w)) != 0 && sh.deadline[base+w] <= c.now() {
					exK, exV := c.expireLocked(sh, set, w)
					sh.stats[tenant].Misses++
					sh.mu.Unlock()
					if c.onExpire != nil {
						c.onExpire(exK, exV)
					}
					c.checkPressure()
					var zero V
					return zero, false
				}
				sh.stats[tenant].Hits++
				sh.pol.Touch(set, w, tenant)
				v := sh.vals[base+w]
				sh.mu.Unlock()
				return v, true
			}
		}
	}
	sh.stats[tenant].Misses++
	sh.mu.Unlock()
	var zero V
	return zero, false
}

// displaced-entry kinds returned by setLocked.
const (
	evNone    = iota // nothing displaced
	evictLive        // a live line was displaced (route to OnEvict)
	evictTTL         // the displaced line's TTL had lapsed (route to OnExpire)
)

// setLocked inserts or updates key in its set with the given expiry
// deadline (0 = none) and precomputed WithCost measurement (ignored
// unless cost accounting is on), returning the displaced entry and its
// kind if the fill displaced one, plus the way the line landed in (so
// budget enforcement can protect it from its own write). Caller holds
// sh.mu and must run the matching callback (OnEvict for evictLive,
// OnExpire for evictTTL) after releasing it. An update whose old line
// already expired surfaces the old value as an expiration rather than
// silently overwriting it, so expired values never vanish uncounted.
func (c *Cache[K, V]) setLocked(sh *shard[K, V], set, tenant int, tag uint8, key K, value V, deadline int64, cost uint64) (evKey K, evVal V, kind int, way int) {
	base := set * c.ways
	tbase := c.tagBase(set)
	way = c.findLocked(sh, base, tbase, tag, key)
	update := way >= 0
	if update {
		// In-place update of the resident line.
		if sh.ttl[set]&(1<<uint(way)) != 0 && sh.deadline[base+way] <= c.now() {
			evKey, evVal, kind = sh.keys[base+way], sh.vals[base+way], evictTTL
			sh.stats[sh.owner[base+way]].Expirations++
		}
		if sh.cost != nil {
			sh.stats[sh.owner[base+way]].Bytes -= sh.cost[base+way]
			c.gaugeSub(sh.owner[base+way], sh.cost[base+way])
		}
	} else {
		// One zero-byte pass over the tag words finds every empty way:
		// prefer one inside the tenant's own partition, then anywhere in
		// the set — filling unowned empty ways does not displace anyone,
		// so quotas are not violated.
		empty := c.emptyWaysLocked(sh, tbase)
		pick := empty & uint64(sh.masks[tenant])
		if pick == 0 {
			pick = empty
		}
		if pick != 0 {
			way = bits.TrailingZeros64(pick)
			sh.live.Add(1)
		} else {
			// Like empty ways, already-expired lines displace nobody:
			// prefer one inside the tenant's partition, then anywhere in
			// the set, before asking the policy to evict a live line.
			// The scan costs nothing when no way carries a deadline.
			if marked := sh.ttl[set] & c.waysMask; marked != 0 {
				now := c.now()
				var lapsed uint64
				for e := marked; e != 0; e &= e - 1 {
					w := bits.TrailingZeros64(e)
					if sh.deadline[base+w] <= now {
						lapsed |= 1 << uint(w)
					}
				}
				if pick := lapsed & uint64(sh.masks[tenant]); pick != 0 {
					way = bits.TrailingZeros64(pick)
				} else if lapsed != 0 {
					way = bits.TrailingZeros64(lapsed)
				}
			}
			if way >= 0 {
				evKey, evVal, kind = sh.keys[base+way], sh.vals[base+way], evictTTL
				sh.stats[sh.owner[base+way]].Expirations++
			} else {
				// Eviction replaces a live line with a live line: the
				// counter is unchanged, so no atomic touches the churn
				// path. A victim whose TTL lapsed between the scan above
				// and here cannot exist (we hold the lock), but a line
				// with a future deadline is still live — Evictions.
				way = sh.pol.Victim(set, tenant, sh.masks[tenant])
				evKey, evVal, kind = sh.keys[base+way], sh.vals[base+way], evictLive
				sh.stats[sh.owner[base+way]].Evictions++
			}
			if sh.cost != nil {
				sh.stats[sh.owner[base+way]].Bytes -= sh.cost[base+way]
				c.gaugeSub(sh.owner[base+way], sh.cost[base+way])
			}
		}
	}
	sh.keys[base+way] = key
	sh.vals[base+way] = value
	sh.owner[base+way] = int16(tenant)
	sh.setTag(tbase, way, tag)
	if deadline != 0 {
		sh.ttl[set] |= 1 << uint(way)
		sh.deadline[base+way] = deadline
		sh.wheel.schedule(int32(base+way), deadline)
	} else if sh.ttl[set]&(1<<uint(way)) != 0 {
		sh.ttl[set] &^= 1 << uint(way)
		sh.wheel.unlink(int32(base + way))
	}
	// Updates of a resident line are recency hits (Touch); everything
	// else installed a new line, which the policy must see as a Fill
	// carrying the line's tag byte as its signature (AWRP resets its
	// frequency on it, ARC probes its ghost rings with it).
	if update {
		sh.pol.Touch(set, way, tenant)
	} else {
		sh.pol.Fill(set, way, tenant, tag)
	}
	if sh.cost != nil {
		sh.cost[base+way] = cost
		sh.stats[tenant].Bytes += cost
		c.gaugeAdd(int16(tenant), cost)
	}
	return evKey, evVal, kind, way
}

// SetTenant inserts or updates key on behalf of the given tenant. On
// insertion into a full set the victim is chosen by the replacement policy
// restricted to the tenant's way quota mask, so one tenant's fills can
// never displace more lines than its quota allows. The entry receives the
// cache's default TTL, if one is configured (override per entry with
// SetTenantTTL or SetTTL). The OnEvict/OnExpire callbacks, if configured,
// run after the shard lock is released.
//
// Under a hard byte limit (WithMaxBytes, or WithHardBudgets + SetBudgets)
// the write additionally evicts until the budgets fit — see governor.go —
// and an entry whose cost alone exceeds its budget is rejected with
// ErrEntryTooLarge. Without hard limits the error is always nil.
func (c *Cache[K, V]) SetTenant(tenant int, key K, value V) error {
	c.checkTenant(tenant)
	return c.setWithDeadline(tenant, key, value, c.defaultDeadline(tenant))
}

// displaced routes one setLocked result to the matching callback. Called
// after the shard lock is released.
func (c *Cache[K, V]) displaced(evKey K, evVal V, kind int) {
	switch kind {
	case evictLive:
		if c.onEvict != nil {
			c.onEvict(evKey, evVal)
		}
	case evictTTL:
		if c.onExpire != nil {
			c.onExpire(evKey, evVal)
		}
	}
}

// Delete removes key from the cache and reports whether it was present
// and live. The freed way's tag byte is cleared and the replacement
// policy's recency state for it invalidated, so the slot is both reusable
// by the next fill and first in line for victim selection. Delete never
// triggers OnEvict (that callback is reserved for capacity evictions);
// deleting a key whose TTL already lapsed reclaims it as an expiration
// and returns false, exactly as if the sweeper had gotten there first.
func (c *Cache[K, V]) Delete(key K) bool {
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
		c.checkPressure()
		return false
	}
	c.clearSlotLocked(sh, set, w)
	sh.mu.Unlock()
	c.checkPressure()
	return true
}

// clearSlotLocked empties the slot at (set, way): key/value zeroed, owner
// released, tag byte cleared, TTL bit dropped, cost refunded and the
// policy's recency invalidated. Caller holds sh.mu.
func (c *Cache[K, V]) clearSlotLocked(sh *shard[K, V], set, way int) {
	base := set * c.ways
	var zeroK K
	var zeroV V
	if sh.cost != nil {
		// The gauge decrement happens here, under the shard lock and
		// before any OnEvict/OnExpire callback for this line can run, so
		// a Snapshot racing the reclaim counts the departing bytes
		// exactly once (in the gauge until this instant, never after).
		sh.stats[sh.owner[base+way]].Bytes -= sh.cost[base+way]
		c.gaugeSub(sh.owner[base+way], sh.cost[base+way])
		sh.cost[base+way] = 0
	}
	sh.keys[base+way] = zeroK
	sh.vals[base+way] = zeroV
	sh.owner[base+way] = -1
	sh.setTag(c.tagBase(set), way, tagEmpty)
	if sh.ttl[set]&(1<<uint(way)) != 0 {
		sh.ttl[set] &^= 1 << uint(way)
		sh.wheel.unlink(int32(base + way))
	}
	sh.pol.Invalidate(set, way)
	sh.live.Add(-1)
}

// expireLocked reclaims the expired slot at (set, way), counting the
// expiration against the tenant that inserted it, and returns the expired
// pair for the caller to hand to OnExpire outside the lock. Caller holds
// sh.mu and must have checked the deadline.
func (c *Cache[K, V]) expireLocked(sh *shard[K, V], set, way int) (K, V) {
	base := set * c.ways
	k, v := sh.keys[base+way], sh.vals[base+way]
	sh.stats[sh.owner[base+way]].Expirations++
	c.clearSlotLocked(sh, set, way)
	return k, v
}

// Len returns the number of live entries across all lock domains. It
// reads each domain's counter atomically without taking its lock, so the
// result is a consistent per-domain (not cross-domain) snapshot —
// O(domains), no probe.
func (c *Cache[K, V]) Len() int {
	var n int64
	for i := range c.shards {
		n += c.shards[i].live.Load()
	}
	return int(n)
}

// Capacity returns the maximum number of entries (shards × sets × ways).
func (c *Cache[K, V]) Capacity() int { return len(c.shards) * c.sets * c.ways }

// Ways returns the per-set associativity.
func (c *Cache[K, V]) Ways() int { return c.ways }

// Sets returns the number of sets per shard, as configured by WithSets.
func (c *Cache[K, V]) Sets() int { return c.sets << c.splitBits }

// Shards returns the shard count configured by WithShards. The cache may
// lock finer than that: each shard can be split into several lock
// domains of contiguous sets, which keeps every key's set and way.
func (c *Cache[K, V]) Shards() int { return len(c.shards) >> c.splitBits }

// Tenants returns the number of partitions the cache was built with.
func (c *Cache[K, V]) Tenants() int { return c.tenants }

// Policy returns the replacement policy family the cache was built
// with. Under WithPolicyAutoSelect individual tenants may have been
// switched away from it — see TenantPolicies.
func (c *Cache[K, V]) Policy() plru.Kind { return c.policy }

// TenantPolicies returns the replacement policy currently serving each
// tenant. Without WithPolicyAutoSelect every tenant uses the base
// policy; with it, the auto-selector may have switched tenants to the
// candidate their profiled traffic scores best.
func (c *Cache[K, V]) TenantPolicies() []plru.Kind {
	out := make([]plru.Kind, c.tenants)
	c.quotaMu.Lock()
	for t := range out {
		if c.activeKinds != nil {
			out[t] = c.activeKinds[c.polByTenant[t]]
		} else {
			out[t] = c.policy
		}
	}
	c.quotaMu.Unlock()
	return out
}

// Quotas returns a copy of the current per-tenant way quotas.
func (c *Cache[K, V]) Quotas() []int {
	c.quotaMu.Lock()
	defer c.quotaMu.Unlock()
	return append([]int(nil), c.quotas...)
}

// Stats returns per-tenant counters aggregated over all lock domains.
// Each domain's counters are read under its lock, so the result is
// per-domain (not cross-domain) consistent.
func (c *Cache[K, V]) Stats() []TenantStats {
	out := make([]TenantStats, c.tenants)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for t := range out {
			out[t].add(sh.stats[t].TenantStats)
		}
		sh.mu.Unlock()
	}
	return out
}

// SetQuotas installs per-tenant way quotas: quotas[t] ways for tenant t,
// each at least 1, summing to Ways(). Each tenant gets a contiguous mask,
// which every policy enforces through the Victim mask walk. The one
// exception is BT with quotas that are all powers of two: those are laid
// out on aligned buddy blocks, because an aligned block keeps BT's
// log2(quota) protected ways where a contiguous mask of the same size can
// keep none (pkg/plru's protect_test.go tabulates both). Lines already
// resident outside their tenant's new partition stay readable (hits are
// global) and age out through replacement.
func (c *Cache[K, V]) SetQuotas(quotas []int) error {
	c.quotaMu.Lock()
	defer c.quotaMu.Unlock()
	return c.setQuotasLocked(quotas)
}

// setQuotasLocked installs quotas and their masks on every shard. The
// caller must hold quotaMu: holding it across the whole install keeps
// every shard on the same partition layout when quota changes race, and
// guards the ctl* scratch the mask computation reuses.
func (c *Cache[K, V]) setQuotasLocked(quotas []int) error {
	masks, err := c.masksForLocked(quotas)
	if err != nil {
		return err
	}
	c.quotas = append(c.quotas[:0], quotas...)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		copy(sh.masks, masks)
		sh.pol.SetPartition(masks)
		sh.mu.Unlock()
	}
	return nil
}

// masksForLocked validates quotas and converts them to per-tenant way
// masks held in the ctlMasks scratch. The caller must hold quotaMu.
func (c *Cache[K, V]) masksForLocked(quotas []int) ([]plru.WayMask, error) {
	if len(quotas) != c.tenants {
		return nil, fmt.Errorf("cpacache: got %d quotas for %d tenants", len(quotas), c.tenants)
	}
	alloc := cpapart.Allocation(quotas)
	if !alloc.Valid(c.ways) {
		return nil, fmt.Errorf("cpacache: quotas %v must each be >= 1 and sum to %d ways", quotas, c.ways)
	}
	if c.policy == plru.BT && allPowersOfTwo(quotas) {
		blocks, err := cpapart.BuddyLayoutInto(c.ctlBlocks, &c.ctlDP, quotas, c.ways)
		if err != nil {
			return nil, fmt.Errorf("cpacache: buddy layout: %w", err)
		}
		c.ctlBlocks = blocks
		for i, b := range blocks {
			c.ctlMasks[i] = b.Mask()
		}
		return c.ctlMasks, nil
	}
	c.ctlMasks = cpapart.MasksInto(c.ctlMasks, alloc, c.ways)
	return c.ctlMasks, nil
}

func allPowersOfTwo(qs []int) bool {
	for _, q := range qs {
		if q <= 0 || q&(q-1) != 0 {
			return false
		}
	}
	return true
}

// MissCurves returns, for every tenant, the predicted number of profiled
// misses as a function of assigned ways (index 0..Ways()), aggregated over
// every shard's sampled sets since the last Rebalance (or construction).
// The profile is fed by lookup traffic (GetTenant/Get); the usual
// Get-miss-then-Set flow is therefore counted exactly once per access.
// The curves are in sampled units — comparable across tenants, which is
// all the cpapart allocators need.
func (c *Cache[K, V]) MissCurves() [][]uint64 {
	curves := make([][]uint64, c.tenants)
	for t := range curves {
		curves[t] = make([]uint64, c.ways+1)
	}
	c.missCurvesInto(curves, false)
	return curves
}

// missCurvesInto aggregates every shard's profile into curves, which must
// be tenants rows of ways+1 and is zeroed first. With try set the shard
// locks are only TryLock'd — the auto-rebalance backpressure mode — and
// the aggregation aborts (returning false) on the first contended shard,
// leaving the profile window intact for the next tick.
func (c *Cache[K, V]) missCurvesInto(curves [][]uint64, try bool) bool {
	for t := range curves {
		clear(curves[t])
	}
	for i := range c.shards {
		sh := &c.shards[i]
		if try {
			if !sh.mu.TryLock() {
				return false
			}
		} else {
			sh.mu.Lock()
		}
		sh.prof.addCurves(curves)
		sh.mu.Unlock()
	}
	return true
}

// Rebalance recomputes the per-tenant quotas from the miss curves observed
// since the previous Rebalance, installs them, resets the profile for the
// next interval and returns the new quotas. It runs cpapart.MinMisses
// (exact DP) under every policy — the paper's repartitioning step, with
// the profile interval chosen by the caller's Rebalance cadence (or the
// WithAutoRebalance ticker's). When byte budgets are installed
// (SetBudgets), they are first translated into per-tenant way caps
// (cpapart.WayCaps, from each tenant's observed resident bytes per way)
// and the capped DP keeps every tenant inside its budget. With a single
// tenant Rebalance is a no-op that still resets the profile.
// Steady-state Rebalance reuses control-plane scratch held on the Cache;
// the only per-call allocation is the returned quota slice.
func (c *Cache[K, V]) Rebalance() ([]int, error) {
	quotas, _, err := c.rebalance(false)
	return quotas, err
}

// rebalance is the shared manual/auto repartitioning cycle. Manual calls
// always install; auto calls apply the hysteresis rule — install only
// when the window holds at least minSamples profiled accesses and the
// proposal predicts at least a `hysteresis` fraction fewer misses than
// the current quotas, or when the current quotas violate the budget caps.
// The profile resets whenever a decision was made on a full window, so a
// skipped tick starts a fresh window instead of letting stale samples
// accumulate. Auto ticks additionally back off from contention: they
// TryLock the shards while gathering the profile and skip the whole tick
// (leaving the window to keep accumulating) if any shard is busy, so the
// background control plane never queues behind a data-plane burst.
func (c *Cache[K, V]) rebalance(auto bool) ([]int, bool, error) {
	// quotaMu spans the whole profile-read + allocate + install cycle so
	// concurrent Rebalance/SetQuotas calls serialize as units (shard locks
	// are only ever taken inside quotaMu, never the other way around).
	c.quotaMu.Lock()
	if !c.missCurvesInto(c.ctlCurves, auto) {
		c.nRebalanceSkip.Add(1)
		quotas := append([]int(nil), c.quotas...)
		emit := c.sink.Rebalance != nil
		c.quotaMu.Unlock()
		if emit {
			// No proposal was computed, so New is nil.
			c.sink.Rebalance(RebalanceEvent{Auto: true, Contended: true, Old: append([]int(nil), quotas...)})
		}
		return quotas, false, nil
	}
	var samples uint64
	for t := range c.ctlCurves {
		samples += c.ctlCurves[t][0] // curve at 0 ways = every profiled access
	}
	caps := c.wayCapsLocked()
	if c.tenants == 1 {
		c.ctlAlloc = append(c.ctlAlloc[:0], c.ways)
	} else {
		c.ctlAlloc = cpapart.MinMisses{}.AllocateCappedInto(c.ctlAlloc, &c.ctlDP, c.ctlCurves, c.ways, caps)
	}

	predOld := cpapart.TotalMisses(c.ctlCurves, cpapart.Allocation(c.quotas))
	predNew := cpapart.TotalMisses(c.ctlCurves, c.ctlAlloc)
	apply, evaluated := true, true
	if auto {
		overBudget := cpapart.Allocation(c.quotas).Exceeds(caps)
		evaluated = samples >= c.minSamples
		// Strict improvement required: a zero-gain proposal (including
		// the predOld == 0 all-hits window) must not churn the masks no
		// matter the hysteresis fraction.
		gainOK := evaluated && predNew < predOld &&
			float64(predOld-predNew) >= c.hysteresis*float64(predOld)
		// Under memory pressure the ladder overrides hysteresis: any
		// strictly better proposal (or a budget violation) installs now
		// rather than waiting out the confidence thresholds.
		apply = gainOK || overBudget || (c.underPressure() && predNew < predOld)
	}

	emit := c.sink.Rebalance != nil
	var old []int
	if emit {
		old = append([]int(nil), c.quotas...)
	}
	if apply {
		if err := c.setQuotasLocked(c.ctlAlloc); err != nil {
			c.quotaMu.Unlock()
			return nil, false, err
		}
	}
	// Policy auto-selection rides the same window boundary: score the
	// candidates on the shadow hits the closing window accumulated, then
	// reset the window alongside the profile. The gather must precede
	// the reset, so it cannot share the loop below.
	var switches []PolicySwitchEvent
	if c.activeKinds != nil && (apply || evaluated) {
		switches = c.selectPoliciesLocked()
		c.nPolSwitch.Add(uint64(len(switches)))
	}
	if apply || evaluated {
		for i := range c.shards {
			sh := &c.shards[i]
			sh.mu.Lock()
			sh.prof.reset()
			if sh.shadow != nil {
				sh.shadow.resetWindow()
			}
			sh.mu.Unlock()
		}
	}
	quotas := append([]int(nil), c.quotas...)
	var ev RebalanceEvent
	if emit {
		ev = RebalanceEvent{
			Auto:               auto,
			Applied:            apply,
			Old:                old,
			New:                append([]int(nil), c.ctlAlloc...),
			SampledAccesses:    samples,
			PredictedMissesOld: predOld,
			PredictedMissesNew: predNew,
		}
	}
	// Counters bump before quotaMu releases so a Snapshot can never see
	// the new quotas installed while Rebalances still reads the old count.
	if apply {
		c.nRebalanced.Add(1)
	} else {
		c.nRebalanceSkip.Add(1)
	}
	c.quotaMu.Unlock()

	if emit {
		c.sink.Rebalance(ev)
	}
	if c.sink.PolicySwitch != nil {
		for _, sev := range switches {
			c.sink.PolicySwitch(sev)
		}
	}
	return quotas, apply, nil
}

// wayCapsLocked translates the installed byte budgets into per-tenant way
// caps from each tenant's observed resident bytes, or returns nil when no
// budgets are set. The bytes-per-way estimate for a tenant is its
// resident bytes divided by its current quota; tenants with no resident
// bytes fall back to the cache-wide average (no data, no cap). Caller
// holds quotaMu.
func (c *Cache[K, V]) wayCapsLocked() []int {
	if c.budgets == nil {
		return nil
	}
	if cap(c.ctlBytes) < c.tenants {
		c.ctlBytes = make([]uint64, c.tenants)
		c.ctlBPW = make([]uint64, c.tenants)
	}
	bytes := c.ctlBytes[:c.tenants]
	bpw := c.ctlBPW[:c.tenants]
	clear(bytes)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for t := range bytes {
			bytes[t] += sh.stats[t].Bytes
		}
		sh.mu.Unlock()
	}
	var total uint64
	for _, b := range bytes {
		total += b
	}
	avg := total / uint64(c.ways)
	for t := range bpw {
		if bytes[t] > 0 {
			bpw[t] = bytes[t] / uint64(c.quotas[t])
		} else {
			bpw[t] = avg
		}
	}
	c.ctlCaps = cpapart.WayCaps(c.ctlCaps, c.budgets, bpw, c.ways)
	return c.ctlCaps
}
