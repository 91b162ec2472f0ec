package cpacache

// Online replacement-policy auto-selection (WithPolicyAutoSelect).
//
// The paper's UMON monitors answer "how many ways does this tenant
// need"; this file extends the same machinery to answer "which
// replacement policy serves this tenant best". Two structures do the
// work, both per shard:
//
//   - multiPol keeps one warm instance of every candidate policy over
//     the shard's real geometry. Every recency event — touch, fill,
//     invalidate, partition install — fans out to all instances, so each
//     candidate's state tracks the shard's actual residency at all
//     times. Victim selection routes through the tenant's currently
//     selected instance, so a policy switch is just an index store: no
//     state rebuild, no cold start.
//
//   - shadowDir is a miniature auxiliary tag directory that scores the
//     candidates. On every profiled lookup (the same sampled sets the
//     UMON profiler uses), each candidate policy runs a private
//     simulation at full associativity per tenant: an 8-bit signature
//     probe against the candidate's own shadow residency, a Touch on a
//     shadow hit, a Victim+Fill on a shadow miss. The per-candidate hit
//     counters are the scores. Signature collisions (1/256 per way)
//     inflate every candidate's counter identically — the probes see the
//     same stream — so the ranking is unbiased.
//
// Decisions happen at rebalance boundaries, under quotaMu, with the
// same hysteresis knobs quota changes use (WithRebalanceHysteresis): a
// tenant switches only when its window holds at least minSamples
// profiled accesses and the best candidate's shadow hits beat the
// current policy's by more than the hysteresis fraction. Switches are
// reported through MetricsSink.PolicySwitch and visible in
// Snapshot.Policies.

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/pkg/plru"
)

// multiPol is the per-shard candidate-policy bank, itself a plru.Policy:
// the shard installs it in place of a single policy, so no data-plane
// call site knows whether auto-selection is on. Recency events fan out
// to every candidate; Victim routes through the calling tenant's selected
// instance. byTenant is written under quotaMu while holding the shard
// lock and read under the shard lock, like the shard's partition masks.
type multiPol struct {
	pols     []plru.Policy // parallel to Cache.activeKinds
	byTenant []int32       // tenant -> index into pols
}

func newMultiPol(kinds []plru.Kind, base, sets, ways, tenants int, seed uint64) *multiPol {
	m := &multiPol{
		pols:     make([]plru.Policy, len(kinds)),
		byTenant: make([]int32, tenants),
	}
	for i, k := range kinds {
		m.pols[i] = plru.New(k, sets, ways, tenants, seed+uint64(i)<<32)
	}
	for t := range m.byTenant {
		m.byTenant[t] = int32(base)
	}
	return m
}

// Kind, Ways and Sets answer from the first candidate: the geometry is
// shared, and the kind in force per tenant is Cache.TenantPolicies.
func (m *multiPol) Kind() plru.Kind { return m.pols[0].Kind() }
func (m *multiPol) Ways() int       { return m.pols[0].Ways() }
func (m *multiPol) Sets() int       { return m.pols[0].Sets() }

func (m *multiPol) Touch(set, way, tenant int) {
	for _, p := range m.pols {
		p.Touch(set, way, tenant)
	}
}

func (m *multiPol) Fill(set, way, tenant int, sig uint8) {
	for _, p := range m.pols {
		p.Fill(set, way, tenant, sig)
	}
}

func (m *multiPol) Victim(set, tenant int, allowed plru.WayMask) int {
	return m.pols[m.byTenant[tenant]].Victim(set, tenant, allowed)
}

func (m *multiPol) Invalidate(set, way int) {
	for _, p := range m.pols {
		p.Invalidate(set, way)
	}
}

func (m *multiPol) SetPartition(masks []plru.WayMask) {
	for _, p := range m.pols {
		p.SetPartition(masks)
	}
}

// shadowDir scores the candidate policies on one lock domain's profiled
// lookup stream. Each candidate k owns a private tag directory of
// sampledSets × tenants shadow sets, ways entries each: shadow set
// (slot, tenant) simulates tenant's workload at full associativity
// under policy k, independent of every other tenant and of the real
// cache contents. All state lives under the domain mutex; access() is
// allocation-free.
type shadowDir struct {
	ways    int
	tenants int
	pols    []plru.Policy // parallel to Cache.activeKinds
	tags    [][]uint8     // per candidate: sampledSets*tenants*ways signature bytes
	valid   [][]uint64    // per candidate: residency mask per shadow set
	hits    [][]uint64    // per candidate: per-tenant shadow hits this window
	acc     []uint64      // per-tenant profiled accesses this window
}

func newShadowDir(kinds []plru.Kind, sampledSets, tenants, ways int, seed uint64) *shadowDir {
	sd := &shadowDir{
		ways:    ways,
		tenants: tenants,
		pols:    make([]plru.Policy, len(kinds)),
		tags:    make([][]uint8, len(kinds)),
		valid:   make([][]uint64, len(kinds)),
		hits:    make([][]uint64, len(kinds)),
		acc:     make([]uint64, tenants),
	}
	// A lock domain may hold no sampled set; one idle shadow set keeps
	// the policy geometry valid.
	shadowSets := max(sampledSets, 1) * tenants
	for i, k := range kinds {
		sd.pols[i] = plru.New(k, shadowSets, ways, tenants, seed+uint64(i)<<24)
		sd.tags[i] = make([]uint8, shadowSets*ways)
		sd.valid[i] = make([]uint64, shadowSets)
		sd.hits[i] = make([]uint64, tenants)
	}
	return sd
}

// access runs one profiled lookup through every candidate's shadow
// directory: probe by signature, Touch on a hit, Victim+Fill on a miss
// (free ways first). slot is the sampled-set ordinal from the profiler.
// Caller holds the shard mutex.
func (sd *shadowDir) access(slot, tenant int, sig uint8) {
	ss := slot*sd.tenants + tenant
	base := ss * sd.ways
	full := plru.Full(sd.ways)
	sd.acc[tenant]++
	for k := range sd.pols {
		tags := sd.tags[k]
		vm := sd.valid[k][ss]
		way := -1
		for m := vm; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			if tags[base+w] == sig {
				way = w
				break
			}
		}
		if way >= 0 {
			sd.hits[k][tenant]++
			sd.pols[k].Touch(ss, way, tenant)
			continue
		}
		if free := uint64(full) &^ vm; free != 0 {
			way = bits.TrailingZeros64(free)
		} else {
			way = sd.pols[k].Victim(ss, tenant, full)
		}
		tags[base+way] = sig
		sd.valid[k][ss] = vm | 1<<uint(way)
		sd.pols[k].Fill(ss, way, tenant, sig)
	}
}

// resetWindow clears the window counters. Shadow residency is kept —
// the simulations stay warm across windows, like the real cache.
func (sd *shadowDir) resetWindow() {
	for k := range sd.hits {
		clear(sd.hits[k])
	}
	clear(sd.acc)
}

// selectPoliciesLocked is the rebalance-boundary policy decision:
// aggregate every shard's shadow scores, pick each tenant's best
// candidate under the hysteresis rule, and install the new routing on
// every shard. Returns one event per switch (usually none). Caller
// holds quotaMu; shard locks are taken one at a time, in the same
// order setQuotasLocked takes them.
func (c *Cache[K, V]) selectPoliciesLocked() []PolicySwitchEvent {
	hits := c.ctlShadowHits
	acc := c.ctlShadowAcc
	for k := range hits {
		clear(hits[k])
	}
	clear(acc)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k := range hits {
			for t, h := range sh.shadow.hits[k] {
				hits[k][t] += h
			}
		}
		for t, a := range sh.shadow.acc {
			acc[t] += a
		}
		sh.mu.Unlock()
	}
	var events []PolicySwitchEvent
	changed := false
	for t := 0; t < c.tenants; t++ {
		if acc[t] < c.minSamples {
			continue
		}
		cur := c.polByTenant[t]
		best := cur
		for k := range hits {
			if hits[k][t] > hits[best][t] {
				best = k
			}
		}
		if best == cur {
			continue
		}
		// Same shape as the quota hysteresis: a strict improvement worth
		// more than the hysteresis fraction of the incumbent's score.
		if float64(hits[best][t]-hits[cur][t]) <= c.hysteresis*float64(hits[cur][t]) {
			continue
		}
		c.polByTenant[t] = best
		changed = true
		ev := PolicySwitchEvent{
			Tenant:         t,
			From:           c.activeKinds[cur],
			To:             c.activeKinds[best],
			WindowAccesses: acc[t],
			Candidates:     append([]plru.Kind(nil), c.activeKinds...),
			ShadowHits:     make([]uint64, len(hits)),
		}
		for k := range hits {
			ev.ShadowHits[k] = hits[k][t]
		}
		events = append(events, ev)
	}
	if changed {
		for i := range c.shards {
			sh := &c.shards[i]
			sh.mu.Lock()
			for t, k := range c.polByTenant {
				sh.multi.byTenant[t] = int32(k)
			}
			sh.mu.Unlock()
		}
	}
	return events
}

// resolveCandidates expands and validates a WithPolicyAutoSelect
// candidate list: the base policy is always included, duplicates are
// dropped, and kinds that cannot run on the geometry (BT without
// power-of-two ways) are rejected when explicit and skipped when
// defaulted. An empty request selects every kind that fits except
// Random (which has no recency signal to win on).
func resolveCandidates(base plru.Kind, ways int, req []plru.Kind) ([]plru.Kind, error) {
	btOK := ways&(ways-1) == 0
	known := plru.Kinds()
	if len(req) == 0 {
		for _, k := range known {
			if k == plru.Random && base != plru.Random {
				continue
			}
			if k == plru.BT && !btOK {
				continue
			}
			req = append(req, k)
		}
	} else {
		req = append([]plru.Kind{base}, req...)
	}
	var out []plru.Kind
	seen := make(map[plru.Kind]bool)
	for _, k := range req {
		if !slices.Contains(known, k) {
			return nil, fmt.Errorf("cpacache: unknown auto-select candidate policy %v", k)
		}
		if k == plru.BT && !btOK {
			return nil, fmt.Errorf("cpacache: auto-select candidate BT needs power-of-two ways, got %d", ways)
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	if len(out) < 2 {
		return nil, fmt.Errorf("cpacache: auto-select needs at least two distinct candidate policies, got %v", out)
	}
	return out, nil
}
