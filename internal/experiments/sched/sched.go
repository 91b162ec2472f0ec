// Package sched is the concurrency substrate for the experiment harness:
// a bounded worker pool plus a deduplicating, memoizing job cache with
// singleflight semantics.
//
// The paper's evaluation is embarrassingly parallel — dozens of
// independent workload × policy × cache-size simulations — but several
// figures request overlapping configurations (Figures 7 and 9 share all
// their runs, Figure 8's baselines overlap Figure 6's). The Cache
// guarantees each unique key is computed exactly once no matter how many
// goroutines ask for it concurrently, while the Pool bounds how many
// computations are in flight at a time.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Pool bounds how many jobs execute simultaneously.
type Pool struct {
	sem   chan struct{}
	multi chan struct{} // held while one job gathers several slots
}

// NewPool returns a pool running at most n jobs at once; n <= 0 uses
// GOMAXPROCS.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, n), multi: make(chan struct{}, 1)}
}

// Size reports the worker-slot count.
func (p *Pool) Size() int { return cap(p.sem) }

// acquire blocks until a worker slot is free or ctx is done. A canceled
// context wins even when a slot is also available (the post-win re-check
// covers select's random choice between two ready cases), so queued work
// drains promptly after cancellation.
func (p *Pool) acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case p.sem <- struct{}{}:
		if err := ctx.Err(); err != nil {
			p.release()
			return err
		}
		return nil
	}
}

func (p *Pool) release() { <-p.sem }

// acquireN blocks until n worker slots are held or ctx is done. Jobs that
// need several slots gather them one at a time, and one such job at a
// time: two of them holding part of the pool each could otherwise wait for
// each other forever, while a single-slot job always finishes and gives
// its slot back.
func (p *Pool) acquireN(ctx context.Context, n int) error {
	if n == 1 {
		return p.acquire(ctx)
	}
	select {
	case p.multi <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-p.multi }()
	for i := range n {
		if err := p.acquire(ctx); err != nil {
			p.releaseN(i)
			return err
		}
	}
	return nil
}

func (p *Pool) releaseN(n int) {
	for range n {
		p.release()
	}
}

// Do runs fn on a worker slot, blocking until one frees up or ctx is
// done. It returns ctx.Err() without running fn when canceled first.
func (p *Pool) Do(ctx context.Context, fn func() error) error {
	if err := p.acquire(ctx); err != nil {
		return err
	}
	defer p.release()
	return fn()
}

// ForEach runs fn(0..n-1) through the pool, one worker slot each, and
// waits for all of them; results are for fn to collect by index. The
// first error cancels jobs that have not yet started and is returned.
//
// fn holds its worker slot for its whole duration, so it must not
// acquire another (no nested ForEach, Pool.Do or Cache.Do on the same
// pool — that can deadlock). Work that funnels through a Cache should
// submit plain goroutines instead and let Cache.Do take the slot.
func ForEach(ctx context.Context, pool *Pool, n int, fn func(i int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := pool.Do(ctx, func() error { return fn(i) }); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
					cancel()
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return firstErr
}

// entry is one in-flight or finished computation. done is closed when
// val/err are final.
type entry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Cache memoizes keyed jobs with singleflight semantics: the first
// caller of a key becomes the leader and computes it on a pool slot;
// concurrent and later callers wait for (and share) that one result.
// Failed computations are not cached, so a key can be retried.
type Cache[V any] struct {
	pool    *Pool
	mu      sync.Mutex
	entries map[string]*entry[V]
}

// NewCache returns an empty cache drawing worker slots from pool.
func NewCache[V any](pool *Pool) *Cache[V] {
	return &Cache[V]{pool: pool, entries: make(map[string]*entry[V])}
}

// Len reports how many keys are cached or in flight.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Do returns the value for key, computing it via fn at most once per
// successful flight. A waiter whose own ctx is canceled gives up
// immediately. A flight that dies of its leader's cancellation says
// nothing about the key, so a waiter with a live ctx retries it (and
// becomes the new leader) rather than inheriting someone else's
// context.Canceled; real computation errors propagate to all waiters.
func (c *Cache[V]) Do(ctx context.Context, key string, fn func(context.Context) (V, error)) (V, error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.mu.Unlock()
			select {
			case <-e.done:
				if e.err != nil && isCtxErr(e.err) && ctx.Err() == nil {
					continue // the leader was canceled, not us: retry
				}
				return e.val, e.err
			case <-ctx.Done():
				var zero V
				return zero, ctx.Err()
			}
		}
		e := &entry[V]{done: make(chan struct{})}
		c.entries[key] = e
		c.mu.Unlock()

		if err := c.pool.acquire(ctx); err != nil {
			c.fail(key, e, err)
			var zero V
			return zero, err
		}
		e.val, e.err = fn(ctx)
		c.pool.release()
		if e.err != nil {
			c.fail(key, e, e.err)
			var zero V
			return zero, e.err
		}
		close(e.done)
		return e.val, nil
	}
}

// DoGroup returns the values for keys, in order. The keys nobody has
// cached or has in flight are computed in one flight: fn receives them,
// in order, with the number of pool slots the flight holds — as many as
// there are keys, up to the pool's size — and returns one value per key.
// Every other key is waited on as Do waits on it; if its flight dies of
// its leader's cancellation, it is computed alone by fn. A single-key Do
// on a key of the flight waits on the flight. A computation error reaches
// every key of the flight and, as with Do, none of them is cached.
func (c *Cache[V]) DoGroup(ctx context.Context, keys []string, fn func(ctx context.Context, keys []string, slots int) ([]V, error)) ([]V, error) {
	vals := make([]V, len(keys))
	var (
		mine    []int // indices of the keys this flight computes
		entries []*entry[V]
	)
	c.mu.Lock()
	for i, k := range keys {
		if _, ok := c.entries[k]; ok {
			continue
		}
		e := &entry[V]{done: make(chan struct{})}
		c.entries[k] = e
		mine = append(mine, i)
		entries = append(entries, e)
	}
	c.mu.Unlock()

	if len(mine) > 0 {
		fail := func(err error) ([]V, error) {
			for j, i := range mine {
				c.fail(keys[i], entries[j], err)
			}
			return nil, err
		}
		slots := min(len(mine), c.pool.Size())
		if err := c.pool.acquireN(ctx, slots); err != nil {
			return fail(err)
		}
		flight := make([]string, len(mine))
		for j, i := range mine {
			flight[j] = keys[i]
		}
		vs, err := fn(ctx, flight, slots)
		c.pool.releaseN(slots)
		if err == nil && len(vs) != len(flight) {
			err = fmt.Errorf("sched: %d values for %d keys", len(vs), len(flight))
		}
		if err != nil {
			return fail(err)
		}
		for j, i := range mine {
			entries[j].val = vs[j]
			close(entries[j].done)
			vals[i] = vs[j]
		}
	}

	for i, k := range keys {
		if len(mine) > 0 && mine[0] == i {
			mine = mine[1:]
			continue
		}
		v, err := c.Do(ctx, k, func(ctx context.Context) (V, error) {
			vs, err := fn(ctx, []string{k}, 1)
			if err == nil && len(vs) != 1 {
				err = fmt.Errorf("sched: %d values for 1 key", len(vs))
			}
			if err != nil {
				var zero V
				return zero, err
			}
			return vs[0], nil
		})
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

// isCtxErr reports whether err is a context cancellation or deadline.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// fail publishes err to e's waiters and removes the placeholder so a
// later caller can retry the key.
func (c *Cache[V]) fail(key string, e *entry[V], err error) {
	c.mu.Lock()
	delete(c.entries, key)
	c.mu.Unlock()
	e.err = err
	close(e.done)
}
