package profiling

import "repro/pkg/plru"

// InCacheProfiler implements the ATD-free profiling alternative the paper
// cites in §VI (Suh et al.'s marginal-gain way counters): instead of a
// private auxiliary tag directory per thread, the shared cache's own LRU
// stack positions are sampled on every hit and charged to the accessing
// thread's SDH.
//
// The hardware cost is a set of counters (no tags at all), but the
// profile is polluted: the observed stack distances reflect the thread's
// standing in the *shared* cache — squeezed by its co-runners — not its
// isolated behavior. The CPA still works when miss curves are clearly
// separated, which is why the technique predates ATDs; the ablation
// benchmark quantifies the gap.
//
// InCacheProfiler implements cache.Observer (structurally — the cache
// package is not imported to avoid a dependency cycle).
type InCacheProfiler struct {
	sdhs []*SDH
	ways int
}

// NewInCacheProfiler builds per-thread SDHs fed from shared-cache hits.
// The cache must run true LRU (stack positions are undefined otherwise);
// callers enforce that.
func NewInCacheProfiler(cores, ways int) *InCacheProfiler {
	p := &InCacheProfiler{ways: ways}
	for i := 0; i < cores; i++ {
		p.sdhs = append(p.sdhs, NewSDH(ways))
	}
	return p
}

// OnCacheAccess records one shared-cache access outcome (cache.Observer).
func (p *InCacheProfiler) OnCacheAccess(core, set int, hit bool, lruDist int) {
	if core < 0 || core >= len(p.sdhs) {
		return
	}
	if !hit {
		p.sdhs[core].RecordMiss()
		return
	}
	if lruDist >= 1 {
		p.sdhs[core].RecordHit(lruDist)
	}
}

// SDH returns thread `core`'s histogram.
func (p *InCacheProfiler) SDH(core int) *SDH { return p.sdhs[core] }

// Cores returns the number of threads profiled.
func (p *InCacheProfiler) Cores() int { return len(p.sdhs) }

// Halve ages every thread's registers (interval boundary).
func (p *InCacheProfiler) Halve() {
	for _, s := range p.sdhs {
		s.Halve()
	}
}

// Observed returns the total accesses recorded across threads.
func (p *InCacheProfiler) Observed() uint64 {
	var t uint64
	for _, s := range p.sdhs {
		t += s.Total()
	}
	return t
}

// RequiresLRU reports the policy constraint for in-cache profiling.
func RequiresLRU(kind plru.Kind) bool { return kind != plru.LRU }
