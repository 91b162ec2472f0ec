package cpacache

// useLockedPlane switches a freshly built cache to the fully locked data
// plane that pointerful types and race builds get: every lookup takes
// the shard mutex and touches on hit, and no shard carries a touch ring.
// The differential and concurrency suites use it to run both planes on
// the same pointer-free types. Call it before the first operation.
func (c *Cache[K, V]) useLockedPlane() {
	c.lockFree = false
	for i := range c.shards {
		c.shards[i].touchRing = nil
		c.shards[i].touchMask = 0
	}
}

// resizeTouchRing gives every shard an empty touch ring of n records (n
// a power of two), so tests can drive the ring's overflow regime. Call
// it before the first operation.
func (c *Cache[K, V]) resizeTouchRing(n int) {
	for i := range c.shards {
		c.shards[i].touchRing = make([]uint64, n)
		c.shards[i].touchMask = uint64(n - 1)
	}
}
