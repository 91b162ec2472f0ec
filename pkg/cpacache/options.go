package cpacache

import (
	"fmt"
	"slices"
	"time"

	"repro/pkg/plru"
)

// maxSets is the largest per-shard set count New accepts. The TTL wheel
// (lifecycle.go) links slots by int32 index, set*ways+way, and
// maxSets × plru.MaxWays stays below 1<<31; no realistic geometry comes
// close.
const maxSets = 1 << 22

// settings collects everything the options configure. The generic
// callbacks (OnEvict, OnExpire, Cost) are held as `any` so that plain
// options stay non-generic; New type-asserts them against the cache's own
// type parameters.
type settings struct {
	shards      int
	sets        int
	ways        int
	policy      plru.Kind
	tenants     int
	sampleEvery int
	seed        uint64
	onEvict     any
	onExpire    any
	costFn      any

	defaultTTL    time.Duration
	sweepInterval time.Duration
	nowFn         func() int64

	autoRebalance time.Duration
	hysteresis    float64
	minSamples    uint64

	autoselect bool
	candidates []plru.Kind

	maxBytes    uint64
	hardBudgets bool
	highMark    float64
	lowMark     float64

	sink MetricsSink
}

// Option configures a Cache under construction. Options are shared across
// all Cache instantiations; only WithOnEvict, WithOnExpire and WithCost
// are generic.
type Option interface {
	apply(*settings) error
}

type optionFunc func(*settings) error

func (f optionFunc) apply(s *settings) error { return f(s) }

func newSettings(opts []Option) (settings, error) {
	s := settings{
		shards:        1,
		sets:          64,
		ways:          8,
		policy:        plru.BT,
		tenants:       1,
		sampleEvery:   16,
		seed:          1,
		sweepInterval: 100 * time.Millisecond,
		hysteresis:    0.05,
		minSamples:    128,
	}
	for _, o := range opts {
		if err := o.apply(&s); err != nil {
			return settings{}, err
		}
	}
	if s.shards <= 0 || s.shards&(s.shards-1) != 0 {
		return settings{}, fmt.Errorf("cpacache: shards must be a positive power of two, got %d", s.shards)
	}
	if s.sets <= 0 {
		return settings{}, fmt.Errorf("cpacache: sets must be positive, got %d", s.sets)
	}
	if s.sets > maxSets {
		return settings{}, fmt.Errorf("cpacache: sets must be at most %d, got %d", maxSets, s.sets)
	}
	if s.ways <= 0 || s.ways > plru.MaxWays {
		return settings{}, fmt.Errorf("cpacache: ways must be in [1,%d], got %d", plru.MaxWays, s.ways)
	}
	if !slices.Contains(plru.Kinds(), s.policy) {
		return settings{}, fmt.Errorf("cpacache: unknown policy %v", s.policy)
	}
	if s.policy == plru.BT && s.ways&(s.ways-1) != 0 {
		return settings{}, fmt.Errorf("cpacache: the BT policy needs power-of-two ways, got %d", s.ways)
	}
	if s.tenants < 1 || s.tenants > s.ways {
		return settings{}, fmt.Errorf("cpacache: tenants must be in [1,ways]=[1,%d], got %d", s.ways, s.tenants)
	}
	if s.sampleEvery <= 0 {
		return settings{}, fmt.Errorf("cpacache: profile sampling rate must be positive, got %d", s.sampleEvery)
	}
	if s.defaultTTL < 0 {
		return settings{}, fmt.Errorf("cpacache: default TTL must be >= 0, got %v", s.defaultTTL)
	}
	if s.sweepInterval < 0 {
		return settings{}, fmt.Errorf("cpacache: sweep interval must be >= 0, got %v", s.sweepInterval)
	}
	if s.autoRebalance < 0 {
		return settings{}, fmt.Errorf("cpacache: auto-rebalance interval must be >= 0, got %v", s.autoRebalance)
	}
	if s.hysteresis < 0 || s.hysteresis != s.hysteresis {
		return settings{}, fmt.Errorf("cpacache: rebalance hysteresis must be a fraction >= 0, got %v", s.hysteresis)
	}
	if s.autoselect {
		kinds, err := resolveCandidates(s.policy, s.ways, s.candidates)
		if err != nil {
			return settings{}, err
		}
		s.candidates = kinds
	}
	if s.maxBytes > 0 && s.costFn == nil {
		return settings{}, fmt.Errorf("cpacache: WithMaxBytes requires WithCost to measure entries")
	}
	if s.hardBudgets && s.costFn == nil {
		return settings{}, fmt.Errorf("cpacache: WithHardBudgets requires WithCost to measure entries")
	}
	if s.highMark != 0 || s.lowMark != 0 {
		if s.maxBytes == 0 {
			return settings{}, fmt.Errorf("cpacache: WithPressureWatermarks requires WithMaxBytes")
		}
		if !(s.lowMark > 0 && s.lowMark < s.highMark && s.highMark <= 1) {
			return settings{}, fmt.Errorf("cpacache: pressure watermarks must satisfy 0 < low < high <= 1, got high=%v low=%v", s.highMark, s.lowMark)
		}
	}
	return s, nil
}

// WithShards sets the number of shards (a power of two; default 1); total
// capacity scales with the shard count. It does not fix the lock
// granularity: with a power-of-two set count New splits each shard into
// lock domains of contiguous sets, up to 64 domains per cache, keeping
// every key's set and way (see Shards).
func WithShards(n int) Option {
	return optionFunc(func(s *settings) error { s.shards = n; return nil })
}

// WithSets sets the number of sets per shard (default 64). Total capacity
// is shards × sets × ways.
func WithSets(n int) Option {
	return optionFunc(func(s *settings) error { s.sets = n; return nil })
}

// WithWays sets the per-set associativity (default 8, at most
// plru.MaxWays). Way quotas are carved out of this associativity, so the
// number of tenants may not exceed it.
func WithWays(n int) Option {
	return optionFunc(func(s *settings) error { s.ways = n; return nil })
}

// WithPolicy selects the replacement policy family (default plru.BT —
// the cheapest state per set; plru.LRU gives exact recency, plru.NRU the
// UltraSPARC T2 scheme, plru.Random a baseline).
func WithPolicy(k plru.Kind) Option {
	return optionFunc(func(s *settings) error { s.policy = k; return nil })
}

// WithPartitions sets the number of tenants sharing the cache (default 1).
// Each tenant starts with an even share of the ways; change shares with
// SetQuotas or Rebalance. Tenant ids passed to GetTenant/SetTenant must be
// in [0, tenants).
func WithPartitions(tenants int) Option {
	return optionFunc(func(s *settings) error { s.tenants = tenants; return nil })
}

// WithProfileSampling profiles one in every n sets per shard for the
// Rebalance miss curves (default 16). Larger n is cheaper and noisier;
// n = 1 profiles every set, counted by its index in the configured shard
// whatever lock domain holds it. Membership is precomputed into a
// per-domain bitmap, so accesses to the other n-1 of every n sets skip
// the profiler with a single inlined bit test. Profiled sets always take
// the locked lookup path (the UMON stacks need mutual exclusion), which
// is why the default halved when lookups went optimistic: 1-in-16 keeps
// the profiler's share of lookup cost where 1-in-8 sat on the locked
// plane.
func WithProfileSampling(n int) Option {
	return optionFunc(func(s *settings) error { s.sampleEvery = n; return nil })
}

// WithSeed fixes the hash-independent randomness (the Random policy's RNG
// stream; default 1). The key-to-set hash is always freshly seeded per
// Cache and is not affected.
func WithSeed(seed uint64) Option {
	return optionFunc(func(s *settings) error { s.seed = seed; return nil })
}

// WithOnEvict installs a callback invoked — outside the shard lock —
// whenever a live entry is displaced by a capacity eviction (never by
// Delete or TTL expiry; see WithOnExpire for the latter). K and V must
// match the type parameters the Cache is built with; New reports an error
// otherwise.
func WithOnEvict[K comparable, V any](fn func(key K, value V)) Option {
	return optionFunc(func(s *settings) error { s.onEvict = fn; return nil })
}

// WithOnExpire installs a callback invoked — outside the shard lock —
// whenever an entry is reclaimed because its TTL lapsed: lazily on the
// lookup path, by the background sweeper, or when a Set lands on an
// already-expired line. K and V must match the cache's type parameters;
// New reports an error otherwise.
func WithOnExpire[K comparable, V any](fn func(key K, value V)) Option {
	return optionFunc(func(s *settings) error { s.onExpire = fn; return nil })
}

// WithDefaultTTL gives every inserted entry a time-to-live of d (> 0):
// once d elapses the entry can no longer be read and is reclaimed lazily
// on access or by the background sweeper (WithTTLSweep). Individual
// entries can override the default with SetTTL or SetTenantTTL. Without
// this option entries live until displaced or deleted.
func WithDefaultTTL(d time.Duration) Option {
	return optionFunc(func(s *settings) error { s.defaultTTL = d; return nil })
}

// WithTTLSweep sets how often the background sweeper reclaims expired
// entries (default 100ms; 0 disables sweeping, leaving reclamation to the
// lazy lookup path). Each tick advances every lock domain's hierarchical
// timing wheel, visiting only the entries that are actually due rather
// than scanning sets; a domain whose lock is contended is skipped for
// that tick (see SweepEvent.Skipped). The sweeper starts when TTLs are
// first used and stops at Close.
func WithTTLSweep(interval time.Duration) Option {
	return optionFunc(func(s *settings) error { s.sweepInterval = interval; return nil })
}

// WithNow replaces the cache's TTL clock with fn, which must return
// nanoseconds on a monotonically non-decreasing scale. fn is called on
// TTL-relevant operations (including the lookup hot path when the probed
// entry carries a deadline), so it must be cheap and safe for concurrent
// use — typically a load of an atomic the caller updates coarsely, which
// is exactly what the built-in clock does. With WithNow the cache starts
// no internal clock goroutine, which also makes expiry deterministic in
// tests.
func WithNow(fn func() int64) Option {
	return optionFunc(func(s *settings) error {
		if fn == nil {
			return fmt.Errorf("cpacache: WithNow requires a non-nil clock")
		}
		s.nowFn = fn
		return nil
	})
}

// WithCost installs a cost function (typically bytes: key footprint +
// value footprint) evaluated once per insert/update. The cache keeps a
// per-tenant resident-cost gauge (TenantStats.Bytes) and uses it to
// translate SetBudgets byte budgets into way caps at Rebalance time; with
// WithHardBudgets or WithMaxBytes the gauge also drives evict-on-write
// enforcement. K and V must match the cache's type parameters; New
// reports an error otherwise. Mutations to a value after Set are not
// re-measured.
func WithCost[K comparable, V any](fn func(key K, value V) uint64) Option {
	return optionFunc(func(s *settings) error { s.costFn = fn; return nil })
}

// WithMaxBytes puts a hard cap on the cache's total resident cost as
// measured by WithCost (which it requires). A Set/SetBatch that would
// push the global gauge over n evicts victims on the write path —
// expired lines first, then the writing tenant's own lines, then any
// line — until the insert fits; a single entry costing more than n is
// rejected with ErrEntryTooLarge. The cap also arms the pressure ladder
// (see WithPressureWatermarks, Pressure): callers watch it to shed
// writes and run maintenance aggressively as the gauge approaches the
// cap.
func WithMaxBytes(n uint64) Option {
	return optionFunc(func(s *settings) error { s.maxBytes = n; return nil })
}

// WithHardBudgets upgrades SetBudgets from steering (byte budgets become
// way caps at the next rebalance) to hard enforcement: a Set/SetBatch
// that would push the writing tenant's Bytes gauge over its budget
// reclaims expired lines and then evicts victims from that tenant's own
// partition — chosen by the replacement policy under the current way
// masks — until the insert fits. Forced displacements are accounted as
// TenantStats.BudgetEvictions, distinct from capacity Evictions. A
// single entry costing more than the tenant's whole budget is rejected
// with ErrEntryTooLarge. Requires WithCost. Tenants without a budget
// (SetBudgets 0) are unconstrained.
func WithHardBudgets() Option {
	return optionFunc(func(s *settings) error { s.hardBudgets = true; return nil })
}

// WithPressureWatermarks tunes the memory-pressure ladder armed by
// WithMaxBytes (which it requires) as fractions of the cap: at
// low×max bytes resident the cache enters PressureAggressive (the
// background sweeper and auto-rebalance run on a shortened tick with
// relaxed hysteresis); at high×max it enters PressureOOM — the signal
// callers use to shed writes — which clears only once the gauge falls
// back below low×max (hysteresis, so the state does not flap at the
// boundary). Must satisfy 0 < low < high <= 1; the defaults are
// high=0.9, low=0.75.
func WithPressureWatermarks(high, low float64) Option {
	return optionFunc(func(s *settings) error {
		s.highMark = high
		s.lowMark = low
		return nil
	})
}

// WithAutoRebalance runs Rebalance automatically every interval (> 0) on
// a background goroutine, with hysteresis (WithRebalanceHysteresis) so
// noisy profile windows do not thrash the partition masks: a proposed
// allocation is installed only when the profiled window is large enough
// and predicts a miss reduction worth acting on, or when byte budgets
// force a change. Stop the goroutine with Close.
func WithAutoRebalance(interval time.Duration) Option {
	return optionFunc(func(s *settings) error { s.autoRebalance = interval; return nil })
}

// WithRebalanceHysteresis tunes when an auto-rebalance tick (see
// WithAutoRebalance) installs its proposed quotas: the profiled window
// must contain at least minSamples accesses and the proposal must predict
// at least a minGain fraction (default 0.05, i.e. 5%) fewer misses than
// the current quotas. Larger values mean fewer, more confident mask
// changes. Manual Rebalance calls ignore hysteresis.
func WithRebalanceHysteresis(minGain float64, minSamples uint64) Option {
	return optionFunc(func(s *settings) error {
		s.hysteresis = minGain
		s.minSamples = minSamples
		return nil
	})
}

// WithPolicyAutoSelect lets the cache pick each tenant's replacement
// policy online instead of pinning every tenant to WithPolicy. The
// candidates (default: every kind that fits the geometry, except
// Random) are scored per tenant on the profiled lookup stream through
// per-candidate shadow tag directories, and at each rebalance boundary
// — manual Rebalance calls or WithAutoRebalance ticks — a tenant whose
// best candidate beats its current policy by more than the
// WithRebalanceHysteresis fraction (with at least minSamples profiled
// accesses in the window) is switched to it. Every candidate instance
// is kept warm on the real access stream, so switches take effect
// immediately with no cold-start transient. Switches are reported via
// MetricsSink.PolicySwitch, counted in Snapshot.PolicySwitches and
// visible in Snapshot.Policies / TenantPolicies.
//
// The base WithPolicy kind is always a candidate; listing BT requires
// power-of-two ways. Auto-selection costs memory (one policy instance
// per candidate per shard plus the shadow directories) and fan-out
// writes on recency updates — the price of keeping every candidate
// switch-ready.
func WithPolicyAutoSelect(candidates ...plru.Kind) Option {
	return optionFunc(func(s *settings) error {
		s.autoselect = true
		s.candidates = candidates
		return nil
	})
}

// WithMetricsSink streams lifecycle events (rebalance decisions, sweeper
// reclamation) to the given sink; nil callbacks inside the sink are
// skipped. Sink callbacks run outside all cache locks but on cache
// goroutines, so they should return quickly. Point-in-time counters are
// available from Stats and Snapshot regardless of any sink.
func WithMetricsSink(sink MetricsSink) Option {
	return optionFunc(func(s *settings) error { s.sink = sink; return nil })
}
