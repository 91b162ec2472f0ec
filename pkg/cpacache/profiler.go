package cpacache

// profiler collects per-tenant stack-distance histograms over a sampled
// subset of one lock domain's sets, in the style of the paper's auxiliary tag
// directory / UMON monitors (§IV): every sampled set keeps, per tenant, a
// private true-LRU stack of the keys that tenant accessed, and each access
// records the key's 1-based stack position (or a miss when the key is
// deeper than the associativity). The histogram integrates into the
// tenant's miss-versus-ways curve, which is exactly what the cpapart
// allocators consume.
//
// Sampling membership is precomputed into a bitmap at init: the hot path
// asks isSampled (one load + mask, inlined into GetTenant) and calls
// record only for sampled sets, so accesses to the other (sampleEvery-1)/
// sampleEvery of the cache never pay a profiler call at all. slot holds
// each sampled set's stack-block index so record does no division.
//
// The profiler lives under the domain mutex, so it needs no locking of its
// own. Its stacks are key slices, not cache slots: a tenant's profile sees
// its own accesses only, undisturbed by other tenants' evictions — the
// "isolated miss curve" the partitioning model assumes.
type profiler[K comparable] struct {
	depth        int // stack depth == ways
	tenants      int
	sampledCount int // number of sampled sets (shadowDir sizes itself on it)
	// sampleBits[set/64] bit set%64 marks the sampled sets.
	sampleBits []uint64
	// slot[set] is the sampled-set ordinal (stack-block index), -1 when
	// the set is not sampled.
	slot []int32
	// stacks[slot*tenants+t] holds up to depth keys, MRU first.
	stacks [][]K
	// hist[t][d-1] counts hits at stack distance d in 1..depth;
	// hist[t][depth] counts profiled misses.
	hist [][]uint64
}

// init sizes the profiler for a domain of sets sets whose first set has
// index first in its configured shard; set s is sampled iff
// (first+s) % every == 0.
func (p *profiler[K]) init(sets, ways, tenants, every, first int) {
	p.depth = ways
	p.tenants = tenants
	p.sampleBits = make([]uint64, (sets+63)/64)
	p.slot = make([]int32, sets)
	sampled := 0
	for set := 0; set < sets; set++ {
		if (first+set)%every == 0 {
			p.sampleBits[set>>6] |= 1 << (uint(set) & 63)
			p.slot[set] = int32(sampled)
			sampled++
		} else {
			p.slot[set] = -1
		}
	}
	p.sampledCount = sampled
	p.stacks = make([][]K, sampled*tenants)
	for i := range p.stacks {
		// Full capacity up front: record() must never allocate, even
		// during warmup, to keep the hot path allocation-free.
		p.stacks[i] = make([]K, 0, ways)
	}
	p.hist = make([][]uint64, tenants)
	for t := range p.hist {
		p.hist[t] = make([]uint64, ways+1)
	}
}

// isSampled reports whether the set belongs to the profiled sample. It is
// small enough to inline into the lookup hot path.
func (p *profiler[K]) isSampled(set int) bool {
	return p.sampleBits[uint(set)>>6]&(1<<(uint(set)&63)) != 0
}

// record notes an access by tenant to key in a sampled set: the key is
// looked up in the tenant's private LRU stack, its distance recorded, and
// the stack updated move-to-front (inserting at MRU on a profiled miss,
// dropping the LRU entry when the stack is at depth). The caller must have
// checked isSampled(set).
func (p *profiler[K]) record(set, tenant int, key K) {
	idx := int(p.slot[set])*p.tenants + tenant
	st := p.stacks[idx]
	pos := -1
	for i, k := range st {
		if k == key {
			pos = i
			break
		}
	}
	if pos >= 0 {
		p.hist[tenant][pos]++
		// Move to front without allocating.
		copy(st[1:pos+1], st[:pos])
		st[0] = key
		return
	}
	p.hist[tenant][p.depth]++
	if len(st) < p.depth {
		st = append(st, key)
	}
	copy(st[1:], st)
	st[0] = key
	p.stacks[idx] = st
}

// addCurves accumulates this domain's miss curves into curves[t][w] for
// w in 0..depth: the number of profiled accesses that would miss if the
// tenant owned w ways (its hits at distances > w plus its cold misses).
func (p *profiler[K]) addCurves(curves [][]uint64) {
	for t, h := range p.hist {
		var total uint64
		for _, n := range h {
			total += n
		}
		cum := uint64(0)
		curves[t][0] += total
		for w := 1; w <= p.depth; w++ {
			cum += h[w-1]
			curves[t][w] += total - cum
		}
	}
}

// reset clears the histograms and stacks for the next profiling interval.
func (p *profiler[K]) reset() {
	for t := range p.hist {
		for i := range p.hist[t] {
			p.hist[t][i] = 0
		}
	}
	for i := range p.stacks {
		p.stacks[i] = p.stacks[i][:0]
	}
}
