package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolBoundsConcurrency(t *testing.T) {
	pool := NewPool(2)
	if pool.Size() != 2 {
		t.Fatalf("size = %d, want 2", pool.Size())
	}
	var cur, peak atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = pool.Do(context.Background(), func() error {
				n := cur.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				cur.Add(-1)
				return nil
			})
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Fatalf("peak concurrency %d exceeds pool size 2", p)
	}
}

func TestPoolDefaultSize(t *testing.T) {
	if NewPool(0).Size() < 1 {
		t.Fatal("default pool has no workers")
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := NewCache[int](NewPool(4))
	var computes atomic.Int32
	release := make(chan struct{})
	results := make(chan int, 8)
	for i := 0; i < 8; i++ {
		go func() {
			v, err := c.Do(context.Background(), "k", func(context.Context) (int, error) {
				computes.Add(1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results <- v
		}()
	}
	// Give every goroutine a chance to join the flight before releasing.
	time.Sleep(5 * time.Millisecond)
	close(release)
	for i := 0; i < 8; i++ {
		if v := <-results; v != 42 {
			t.Fatalf("result = %d, want 42", v)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
	if c.Len() != 1 {
		t.Fatalf("cache len = %d, want 1", c.Len())
	}
}

func TestWaiterCancellation(t *testing.T) {
	c := NewCache[int](NewPool(1))
	started := make(chan struct{})
	release := make(chan struct{})
	go c.Do(context.Background(), "slow", func(context.Context) (int, error) {
		close(started)
		<-release
		return 1, nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.Do(ctx, "slow", func(context.Context) (int, error) { return 2, nil })
		errc <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter error = %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled waiter did not return promptly")
	}
	close(release)
}

func TestQueuedJobCancellation(t *testing.T) {
	// One slot, occupied by a blocked leader: a queued job for another
	// key must give up promptly when its context is canceled.
	pool := NewPool(1)
	c := NewCache[int](pool)
	started := make(chan struct{})
	release := make(chan struct{})
	go c.Do(context.Background(), "hog", func(context.Context) (int, error) {
		close(started)
		<-release
		return 1, nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.Do(ctx, "queued", func(context.Context) (int, error) { return 2, nil })
		errc <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("queued error = %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued job did not cancel promptly")
	}
	close(release)

	// The queued key must not be poisoned: it can be computed later.
	v, err := c.Do(context.Background(), "queued", func(context.Context) (int, error) { return 3, nil })
	if err != nil || v != 3 {
		t.Fatalf("retry after cancel = (%d, %v), want (3, nil)", v, err)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := NewCache[int](NewPool(1))
	boom := fmt.Errorf("boom")
	if _, err := c.Do(context.Background(), "k", func(context.Context) (int, error) {
		return 0, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatalf("failed entry cached; len = %d", c.Len())
	}
	v, err := c.Do(context.Background(), "k", func(context.Context) (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry = (%d, %v), want (7, nil)", v, err)
	}
}

func TestPoolDoCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := NewPool(1).Do(ctx, func() error { ran = true; return nil })
	if !errors.Is(err, context.Canceled) || ran {
		t.Fatalf("Do on canceled ctx: err=%v ran=%v", err, ran)
	}
}

func TestForEachOrderedResults(t *testing.T) {
	pool := NewPool(3)
	out := make([]int, 16)
	err := ForEach(context.Background(), pool, len(out), func(i int) error {
		out[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestForEachFirstErrorCancels(t *testing.T) {
	pool := NewPool(1)
	boom := errors.New("boom")
	var ran atomic.Int32
	err := ForEach(context.Background(), pool, 8, func(i int) error {
		// Whichever job runs first fails (goroutine order is arbitrary).
		if ran.Add(1) == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// With one slot and the first job failing, later jobs should mostly
	// be canceled before they start.
	if ran.Load() == 8 {
		t.Fatal("error did not cancel remaining jobs")
	}
}

func TestWaiterSurvivesLeaderCancellation(t *testing.T) {
	// A waiter with a live context must not inherit the leader's
	// context.Canceled — it retries the key as the new leader.
	c := NewCache[int](NewPool(2))
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	inFn := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.Do(leaderCtx, "k", func(ctx context.Context) (int, error) {
			close(inFn)
			<-ctx.Done()
			return 0, ctx.Err()
		})
		leaderErr <- err
	}()
	<-inFn

	waiterVal := make(chan int, 1)
	go func() {
		v, err := c.Do(context.Background(), "k", func(context.Context) (int, error) {
			return 7, nil
		})
		if err != nil {
			t.Error("waiter inherited leader's fate:", err)
		}
		waiterVal <- v
	}()
	time.Sleep(2 * time.Millisecond) // let the waiter join the flight
	cancelLeader()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want Canceled", err)
	}
	select {
	case v := <-waiterVal:
		if v != 7 {
			t.Fatalf("waiter got %d, want 7 (recomputed)", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never recovered from leader cancellation")
	}
}

// squares is a DoGroup computation: each key's value is its length
// squared, and the call is counted.
func squares(calls *atomic.Int32) func(context.Context, []string, int) ([]int, error) {
	return func(_ context.Context, keys []string, _ int) ([]int, error) {
		calls.Add(1)
		vs := make([]int, len(keys))
		for i, k := range keys {
			vs[i] = len(k) * len(k)
		}
		return vs, nil
	}
}

func TestDoGroupExcludesCachedAndInFlightKeys(t *testing.T) {
	pool := NewPool(3)
	c := NewCache[int](pool)
	if _, err := c.Do(context.Background(), "aa", func(context.Context) (int, error) { return 4, nil }); err != nil {
		t.Fatal(err)
	}
	started, release := make(chan struct{}), make(chan struct{})
	go c.Do(context.Background(), "bbb", func(context.Context) (int, error) {
		close(started)
		<-release
		return 9, nil
	})
	<-started

	var flight []string
	var slots int
	go func() {
		time.Sleep(5 * time.Millisecond)
		close(release)
	}()
	vs, err := c.DoGroup(context.Background(), []string{"a", "aa", "bbb", "cccc"},
		func(_ context.Context, keys []string, n int) ([]int, error) {
			flight, slots = keys, n
			return []int{1, 16}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(vs) != "[1 4 9 16]" {
		t.Fatalf("values %v, want [1 4 9 16]", vs)
	}
	if fmt.Sprint(flight) != "[a cccc]" || slots != 2 {
		t.Fatalf("the flight computed %v on %d slots, want [a cccc] on 2", flight, slots)
	}
}

func TestDoGroupSlotsCappedByPool(t *testing.T) {
	c := NewCache[int](NewPool(2))
	var slots int
	if _, err := c.DoGroup(context.Background(), []string{"a", "b", "c", "d"},
		func(_ context.Context, keys []string, n int) ([]int, error) {
			slots = n
			return make([]int, len(keys)), nil
		}); err != nil {
		t.Fatal(err)
	}
	if slots != 2 {
		t.Fatalf("a four-key flight on a two-slot pool held %d slots", slots)
	}
}

func TestDoGroupFollowerWaitsOnFlight(t *testing.T) {
	c := NewCache[int](NewPool(2))
	inFn, release := make(chan struct{}), make(chan struct{})
	go c.DoGroup(context.Background(), []string{"x", "y"}, func(_ context.Context, keys []string, _ int) ([]int, error) {
		close(inFn)
		<-release
		return []int{10, 20}, nil
	})
	<-inFn
	got := make(chan int, 1)
	go func() {
		v, err := c.Do(context.Background(), "y", func(context.Context) (int, error) {
			t.Error("the follower computed the key itself")
			return 0, nil
		})
		if err != nil {
			t.Error(err)
		}
		got <- v
	}()
	time.Sleep(2 * time.Millisecond)
	close(release)
	if v := <-got; v != 20 {
		t.Fatalf("follower got %d, want the flight's 20", v)
	}
}

func TestDoGroupWaiterRetriesCanceledLeader(t *testing.T) {
	c := NewCache[int](NewPool(2))
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	inFn := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.DoGroup(leaderCtx, []string{"p", "q"}, func(ctx context.Context, _ []string, _ int) ([]int, error) {
			close(inFn)
			<-ctx.Done()
			return nil, ctx.Err()
		})
		leaderErr <- err
	}()
	<-inFn

	var calls atomic.Int32
	got := make(chan []int, 1)
	go func() {
		vs, err := c.DoGroup(context.Background(), []string{"q", "rr"}, squares(&calls))
		if err != nil {
			t.Error("waiter inherited the leader's fate:", err)
		}
		got <- vs
	}()
	time.Sleep(2 * time.Millisecond)
	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want Canceled", err)
	}
	select {
	case vs := <-got:
		if fmt.Sprint(vs) != "[1 4]" {
			t.Fatalf("waiter got %v, want [1 4]", vs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never recovered from the leader's cancellation")
	}
	// "rr" in the waiter's own flight, "q" retried alone.
	if n := calls.Load(); n != 2 {
		t.Fatalf("%d computations, want 2", n)
	}
}

func TestDoGroupErrorReachesEveryKey(t *testing.T) {
	c := NewCache[int](NewPool(2))
	boom := fmt.Errorf("boom")
	inFn, release := make(chan struct{}), make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, err := c.DoGroup(context.Background(), []string{"k1", "k2", "k3"}, func(context.Context, []string, int) ([]int, error) {
			close(inFn)
			<-release
			return nil, boom
		})
		leader <- err
	}()
	<-inFn
	errs := make(chan error, 3)
	for _, k := range []string{"k1", "k2", "k3"} {
		go func() {
			_, err := c.Do(context.Background(), k, func(context.Context) (int, error) { return 0, fmt.Errorf("recomputed %s", k) })
			errs <- err
		}()
	}
	time.Sleep(2 * time.Millisecond)
	close(release)
	if err := <-leader; !errors.Is(err, boom) {
		t.Fatalf("leader err = %v, want boom", err)
	}
	for range 3 {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("waiter err = %v, want boom", err)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("%d failed keys cached", c.Len())
	}
}

// TestMultiSlotNoDeadlock mixes DoGroup and Do callers with overlapping
// keys on small pools: multi-slot and single-slot acquirers contend for
// the same slots, and every caller must finish.
func TestMultiSlotNoDeadlock(t *testing.T) {
	for _, size := range []int{1, 2, 3} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			pool := NewPool(size)
			c := NewCache[int](pool)
			var calls atomic.Int32
			var wg sync.WaitGroup
			for i := range 40 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ctx := context.Background()
					key := func(j int) string { return fmt.Sprintf("k%02d", j%25) }
					if i%3 == 0 {
						v, err := c.Do(ctx, key(i), func(context.Context) (int, error) {
							time.Sleep(100 * time.Microsecond)
							return len(key(i)) * len(key(i)), nil
						})
						if err != nil || v != 9 {
							t.Errorf("Do = (%d, %v)", v, err)
						}
						return
					}
					keys := []string{key(i), key(i + 1), key(i + 7), key(i + 13)}
					vs, err := c.DoGroup(ctx, keys, func(ctx context.Context, keys []string, slots int) ([]int, error) {
						time.Sleep(100 * time.Microsecond)
						return squares(&calls)(ctx, keys, slots)
					})
					if err != nil || fmt.Sprint(vs) != "[9 9 9 9]" {
						t.Errorf("DoGroup = (%v, %v)", vs, err)
					}
				}()
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(20 * time.Second):
				t.Fatal("callers deadlocked")
			}
			if c.Len() != 25 {
				t.Fatalf("%d keys cached, want 25", c.Len())
			}
		})
	}
}
