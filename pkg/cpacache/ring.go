package cpacache

import "sync/atomic"

// Deferred recency: the touch ring.
//
// The premise of the whole optimistic data plane is the paper's: pseudo-
// LRU recency state is approximate by construction, so the partitioning
// guarantees survive recency that is applied late — or, under pressure,
// not at all. A hit therefore does not call the policy's Touch under the
// shard lock; it appends a packed (set, way, tenant) record to a fixed-
// size per-shard ring with two atomic operations and moves on. Every
// mutating path that takes the shard lock — Set, Delete, SetTTL, quota
// installs, the sweeper, Rebalance — first drains the ring and applies
// the pending records to the policy in arrival order, so recency is
// always current before any Victim or Invalidate consults it.
//
// The ring is deliberately lossy. Producers reserve slots with an atomic
// counter and overwrite the oldest records when more than the ring's
// capacity in hits queues between drains; a drain that raced a producer
// mid-store may also observe that slot empty and skip it. Dropped
// touches are exactly the "sampled recency" the paper's policies
// tolerate — correctness (which key maps to which value, quota
// enforcement, callback classification) never depends on the ring.
//
// Slot stores and loads are plain: an aligned 64-bit word cannot tear on
// the architectures Go supports, and the only writers that ever race on
// a slot are a producer overwriting it and the drainer clearing it —
// either order loses at most that one touch. Because "cannot tear" is an
// architectural fact rather than a memory-model guarantee, the drainer
// still bounds-checks every record before handing it to the policy; a
// mixed record at worst touches the wrong (valid) way. Race-detector
// builds never run the producer (lookups are fully locked there and
// apply Touch directly), so the detector has nothing to flag.
//
// Only lock-free caches (pointer-free K and V, non-race builds) carry a
// ring: getNoLock is its only producer, so any other cache would hold a
// ring nothing writes. Their locked paths find touchRing nil and apply
// every Touch and Fill directly.
//
// Single-threaded executions never drop or reorder records (positions
// are sequential and drains run before every policy read), so with a
// ring large enough to hold the hits between two mutations the deferred
// configuration is *exactly* equivalent to immediate Touch — the
// property the differential tests lean on.

// touchRingSize is the per-shard ring capacity: 256 records = 2KB per
// shard.
const touchRingSize = 256

// touch record layout:
// | valid(1) | fill(1) | sig(8) | set(22) | tenant(16) | way(16) |.
// The valid bit distinguishes a stored record from a never-written or
// already-drained slot; the fill bit marks a deferred policy Fill (a new
// line installed by a locked write path while hit records were still
// queued) whose 8-bit line signature rides in the sig field. Squeezing
// the signature in caps the set field at 22 bits — newSettings rejects
// geometries beyond 1<<22 sets per shard, far above any real
// configuration.
const (
	touchValid = uint64(1) << 63
	touchFill  = uint64(1) << 62
)

// maxRingSets is the largest per-shard set count the packed record can
// address.
const maxRingSets = 1 << 22

func packTouch(set, way, tenant int) uint64 {
	return touchValid | uint64(set)<<32 | uint64(tenant)<<16 | uint64(way)
}

func packFill(set, way, tenant int, sig uint8) uint64 {
	return touchValid | touchFill | uint64(sig)<<54 | uint64(set)<<32 | uint64(tenant)<<16 | uint64(way)
}

func unpackTouch(r uint64) (set, way, tenant int) {
	return int(r>>32) & (maxRingSets - 1), int(uint16(r)), int(uint16(r >> 16))
}

// pushTouch appends one deferred recency record. Safe for any number of
// concurrent producers, with or without the shard lock; never blocks and
// never allocates. Overflow overwrites the oldest unread record.
//
// The head increment is deliberately a plain read-modify-write, not a
// LOCK-prefixed one: an atomic add would cost more than the rest of the
// hit path combined, and the only effect of two producers racing the
// increment is that they write the same slot and one touch wins —
// indistinguishable from the overwrite the ring already performs under
// overflow. Single-threaded executions (where exactness matters) see
// every record in order.
func (sh *shard[K, V]) pushTouch(set, way, tenant int) {
	h := sh.touchHead
	sh.touchHead = h + 1
	sh.touchRing[h&sh.touchMask] = packTouch(set, way, tenant)
}

// touchOrPush records one access from a locked path. With records
// pending it must join the ring queue (applying directly would reorder
// it ahead of them); with the ring empty — the steady state of write-
// heavy workloads, whose drains run just before this — applying the
// policy Touch immediately is the same order at half the cost. Caller
// holds sh.mu.
func (c *Cache[K, V]) touchOrPush(sh *shard[K, V], set, way, tenant int) {
	if sh.touchRing != nil && atomic.LoadUint64(&sh.touchHead) != sh.touchDrained {
		sh.pushTouch(set, way, tenant)
		return
	}
	sh.pol.Touch(set, way, tenant)
}

// fillOrPush is touchOrPush for a new line: the policy must see a Fill
// (with the line's signature) rather than a Touch, in exactly the program
// order the ring preserves. Caller holds sh.mu.
func (c *Cache[K, V]) fillOrPush(sh *shard[K, V], set, way, tenant int, sig uint8) {
	if sh.touchRing != nil && atomic.LoadUint64(&sh.touchHead) != sh.touchDrained {
		h := sh.touchHead
		sh.touchHead = h + 1
		sh.touchRing[h&sh.touchMask] = packFill(set, way, tenant, sig)
		return
	}
	sh.pol.Fill(set, way, tenant, sig)
}

// drainTouches applies every pending ring record to the shard's policy in
// arrival order. Caller holds sh.mu. The empty-ring check — two loads
// and a compare — is what every write pays, so it stays inlineable and
// the walk lives in drainSlow. Records published by producers that raced
// past the observed head are left for the next drain.
func (c *Cache[K, V]) drainTouches(sh *shard[K, V]) {
	if sh.touchRing == nil {
		return // locked plane: nothing ever queues
	}
	if h := atomic.LoadUint64(&sh.touchHead); h != sh.touchDrained {
		c.drainSlow(sh, h)
	}
}

func (c *Cache[K, V]) drainSlow(sh *shard[K, V], h uint64) {
	n := h - sh.touchDrained
	if size := uint64(len(sh.touchRing)); n > size {
		// Overflow: records older than one ring's worth were overwritten
		// by producers — the sampled-drop regime.
		n = size
	}
	for p := h - n; p != h; p++ {
		slot := &sh.touchRing[p&sh.touchMask]
		r := *slot
		if r == 0 {
			continue // never written, or a producer is mid-publish
		}
		*slot = 0
		set, way, tenant := unpackTouch(r)
		// Bounds check: a record that raced an overwrite can in
		// principle mix two producers' words (see the file comment);
		// anything in range is at worst recency noise, anything out of
		// range is dropped.
		if set >= c.sets || way >= c.ways || tenant >= c.tenants {
			continue
		}
		if r&touchFill != 0 {
			sh.pol.Fill(set, way, tenant, uint8(r>>54))
		} else {
			sh.pol.Touch(set, way, tenant)
		}
	}
	sh.touchDrained = h
}
