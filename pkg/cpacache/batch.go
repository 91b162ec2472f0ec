package cpacache

import "fmt"

// batchScratch buffers the entries a budget-enforcing write displaced
// (governor.go) so their OnEvict/OnExpire callbacks run after the shard
// lock is released. It is recycled through Cache.batchPool, so steady-
// state enforcement does not allocate.
type batchScratch[K comparable, V any] struct {
	evK []K // displaced live entries awaiting OnEvict
	evV []V
	exK []K // expired entries awaiting OnExpire
	exV []V
}

// flushCallbacks runs the buffered OnEvict/OnExpire callbacks (the owning
// shard's lock must already be released) and clears the buffers.
func (c *Cache[K, V]) flushCallbacks(s *batchScratch[K, V]) {
	if len(s.evK) > 0 {
		for j := range s.evK {
			c.onEvict(s.evK[j], s.evV[j])
		}
		clear(s.evK) // drop references before pooling
		clear(s.evV)
		s.evK = s.evK[:0]
		s.evV = s.evV[:0]
	}
	if len(s.exK) > 0 {
		for j := range s.exK {
			c.onExpire(s.exK[j], s.exV[j])
		}
		clear(s.exK)
		clear(s.exV)
		s.exK = s.exK[:0]
		s.exV = s.exV[:0]
	}
}

// getScratch returns a pooled scratch, or a new one when the pool is
// empty. Callers flush (and so clear) it before putting it back.
func (c *Cache[K, V]) getScratch() *batchScratch[K, V] {
	if s, _ := c.batchPool.Get().(*batchScratch[K, V]); s != nil {
		return s
	}
	return &batchScratch[K, V]{}
}

// GetBatch looks up every key on behalf of tenant, writing results into
// vals[i] and oks[i] (both must be at least len(keys) long; vals[i] is
// zeroed on a miss). It returns the number of hits. Each key is one
// GetTenant call, in order, so stats, recency, expiry, profiling and
// policy scoring are exactly those of the per-key loop.
func (c *Cache[K, V]) GetBatch(tenant int, keys []K, vals []V, oks []bool) int {
	c.checkTenant(tenant)
	if len(vals) < len(keys) || len(oks) < len(keys) {
		panic("cpacache: GetBatch result slices shorter than keys")
	}
	hits := 0
	for i, k := range keys {
		vals[i], oks[i] = c.GetTenant(tenant, k)
		if oks[i] {
			hits++
		}
	}
	return hits
}

// SetBatch inserts or updates every keys[i] → vals[i] pair on behalf of
// tenant (the slices must be the same length). Each pair is one
// SetTenant call, in order, so victim selection, quota and budget
// enforcement, default TTL, callbacks and stats are exactly those of the
// per-key loop. Under WithHardBudgets/WithMaxBytes a key whose cost
// alone exceeds the limit is skipped — the rest of the batch is still
// applied — and SetBatch returns an error wrapping ErrEntryTooLarge that
// counts the skips.
func (c *Cache[K, V]) SetBatch(tenant int, keys []K, vals []V) error {
	c.checkTenant(tenant)
	if len(vals) != len(keys) {
		panic("cpacache: SetBatch keys and vals lengths differ")
	}
	oversized := 0
	for i, k := range keys {
		if c.SetTenant(tenant, k, vals[i]) != nil {
			oversized++ // SetTenant's only error is ErrEntryTooLarge
		}
	}
	if oversized > 0 {
		return fmt.Errorf("cpacache: SetBatch skipped %d oversized entries: %w", oversized, ErrEntryTooLarge)
	}
	return nil
}
