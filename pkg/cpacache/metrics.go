package cpacache

// Metrics export: the cache exposes its lifecycle two ways. Pull — Stats
// (per-tenant counters) and Snapshot (one coherent frame of counters,
// quotas and budgets) — for scrape-style collectors; push — a MetricsSink
// of optional callbacks — for decisions that are events rather than
// gauges, like "this auto-rebalance tick moved ways" or "the sweeper
// reclaimed 40 expired lines". Sink callbacks run outside every cache
// lock, on the goroutine that made the decision.

import "repro/pkg/plru"

// MetricsSink receives lifecycle events. Any callback may be nil; nil
// callbacks are simply skipped. Callbacks must be safe for concurrent use
// (the sweeper and the auto-rebalance ticker are separate goroutines) and
// should return quickly — they run on the cache's background goroutines,
// outside all locks.
type MetricsSink struct {
	// Rebalance is called once per rebalance decision — manual Rebalance
	// calls, auto-rebalance ticks that installed new quotas, and ticks
	// that were held back by hysteresis.
	Rebalance func(RebalanceEvent)
	// Sweep is called after a background sweep tick that reclaimed at
	// least one expired entry or skipped at least one contended lock
	// domain.
	Sweep func(SweepEvent)
	// PolicySwitch is called once per tenant whose replacement policy
	// the auto-selector (WithPolicyAutoSelect) switched at a rebalance
	// boundary. Never called without auto-selection.
	PolicySwitch func(PolicySwitchEvent)
	// Pressure is called on every memory-pressure transition of the
	// WithMaxBytes ladder (ok ⇄ aggressive ⇄ oom). Never called without
	// WithMaxBytes. Transitions are serialized: callbacks observe a
	// consistent From → To chain, from whichever goroutine's operation
	// crossed the watermark.
	Pressure func(PressureEvent)
}

// PressureEvent describes one memory-pressure transition.
type PressureEvent struct {
	// From and To are the outgoing and incoming ladder states.
	From, To PressureState
	// UsedBytes is the global resident-cost gauge at the transition;
	// MaxBytes is the WithMaxBytes cap.
	UsedBytes, MaxBytes uint64
}

// RebalanceEvent describes one rebalance decision.
type RebalanceEvent struct {
	// Auto is true for ticker-driven rebalances, false for Rebalance calls.
	Auto bool
	// Applied reports whether the proposed quotas were installed. Manual
	// rebalances always apply; auto ticks may be held back by hysteresis
	// (too few samples, or too little predicted gain).
	Applied bool
	// Contended is true for auto ticks that were skipped before any
	// proposal was computed because a lock domain was busy (the
	// backpressure rule: the background control plane never queues
	// behind a data-plane burst). New is nil on contended events.
	Contended bool
	// Old and New are the quotas before the decision and the proposal
	// (installed only when Applied). Both are copies owned by the sink.
	Old, New []int
	// SampledAccesses is the number of profiled accesses in the window
	// the decision was computed from.
	SampledAccesses uint64
	// PredictedMissesOld and PredictedMissesNew evaluate the profiled
	// miss curves at the old and proposed quotas — the quantities the
	// hysteresis rule compares.
	PredictedMissesOld, PredictedMissesNew uint64
}

// PolicySwitchEvent describes one tenant's replacement-policy switch,
// decided by the auto-selector at a rebalance boundary.
type PolicySwitchEvent struct {
	// Tenant is the switched tenant.
	Tenant int
	// From and To are the outgoing and incoming policy kinds.
	From, To plru.Kind
	// WindowAccesses is the number of profiled accesses the tenant
	// contributed to the decision window.
	WindowAccesses uint64
	// Candidates lists the candidate kinds and ShadowHits their shadow
	// hit counts for this tenant over the window, index-aligned. Both
	// are copies owned by the sink.
	Candidates []plru.Kind
	ShadowHits []uint64
}

// SweepEvent describes one background sweep tick that reclaimed expired
// entries or backed off from contention.
type SweepEvent struct {
	// Visited is the number of timing-wheel entries the tick examined
	// across all lock domains — due entries plus any that were parked just
	// short of their deadline. The wheel visits only deadline-carrying
	// slots, never whole sets.
	Visited int
	// Expired is the number of entries reclaimed this tick.
	Expired int
	// Skipped is the number of lock domains whose sweep was skipped this tick
	// because their lock was contended; their due entries remain linked
	// and the next tick retries.
	Skipped int
}

// Snapshot is a point-in-time view of the cache's lifecycle state, taken
// with per-domain consistency (lock domains are taken one at a time, so
// cross-domain totals can skew by in-flight operations, exactly like
// Stats).
type Snapshot struct {
	// Tenants holds the per-tenant counters, as Stats returns them.
	Tenants []TenantStats
	// Quotas is the installed per-tenant way allocation.
	Quotas []int
	// Policies is the replacement policy currently serving each tenant:
	// the base policy everywhere unless WithPolicyAutoSelect switched a
	// tenant to a better-scoring candidate.
	Policies []plru.Kind
	// Budgets is the per-tenant byte budgets installed with SetBudgets
	// (nil when none are set).
	Budgets []uint64
	// Len and Capacity are the live-entry count and the slot count.
	Len, Capacity int
	// Rebalances counts rebalance decisions that installed quotas;
	// RebalancesSkipped counts auto ticks held back by hysteresis.
	Rebalances, RebalancesSkipped uint64
	// SweepExpired counts entries reclaimed by the background sweeper
	// over the cache's lifetime (lazily reclaimed entries are counted
	// per tenant in Tenants[t].Expirations alongside these).
	SweepExpired uint64
	// SweepSkipped counts domain sweeps skipped because the domain lock
	// was contended when the sweeper's tick tried to take it.
	SweepSkipped uint64
	// PolicySwitches counts tenant policy switches the auto-selector
	// has applied over the cache's lifetime (0 without auto-selection).
	PolicySwitches uint64
	// UsedBytes is the resident-cost total, the sum of Tenants[t].Bytes
	// (0 without WithCost), and MaxBytes the WithMaxBytes cap (0 when
	// uncapped).
	UsedBytes, MaxBytes uint64
	// Pressure is the ladder state at the frame (always PressureOK
	// without WithMaxBytes).
	Pressure PressureState
	// BudgetEvictedBytes totals the cost of lines displaced by the
	// governor (WithHardBudgets / WithMaxBytes enforcement) over the
	// cache's lifetime; the per-tenant line counts are in
	// Tenants[t].BudgetEvictions.
	BudgetEvictedBytes uint64
}

// Snapshot returns a point-in-time metrics frame: per-tenant counters,
// quotas, budgets and lifecycle totals in one call.
func (c *Cache[K, V]) Snapshot() Snapshot {
	s := Snapshot{
		Tenants:            c.Stats(),
		Len:                c.Len(),
		Capacity:           c.Capacity(),
		SweepExpired:       c.nSweepExpired.Load(),
		SweepSkipped:       c.nSweepSkipped.Load(),
		MaxBytes:           c.maxBytes,
		Pressure:           c.Pressure(),
		BudgetEvictedBytes: c.nBudgetEvictBytes.Load(),
	}
	for _, t := range s.Tenants {
		s.UsedBytes += t.Bytes
	}
	// Quotas and the rebalance counters read under quotaMu (which
	// rebalance holds across install + counter bump), so a frame never
	// pairs freshly installed quotas with a not-yet-bumped count.
	c.quotaMu.Lock()
	s.Quotas = append([]int(nil), c.quotas...)
	s.Policies = make([]plru.Kind, c.tenants)
	for t := range s.Policies {
		if c.activeKinds != nil {
			s.Policies[t] = c.activeKinds[c.polByTenant[t]]
		} else {
			s.Policies[t] = c.policy
		}
	}
	if c.budgets != nil {
		s.Budgets = append([]uint64(nil), c.budgets...)
	}
	s.Rebalances = c.nRebalanced.Load()
	s.RebalancesSkipped = c.nRebalanceSkip.Load()
	s.PolicySwitches = c.nPolSwitch.Load()
	c.quotaMu.Unlock()
	return s
}
