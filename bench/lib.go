package main

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/server"
	"repro/pkg/cpacache"
)

// libBlock is the number of lookups timed as one latency sample (and, in
// the traced pass, recorded as one span).
const libBlock = 1024

// libStream is the pre-generated index stream length per goroutine: long
// enough to cover the key space many times, and a power of two.
const libStream = 1 << 20

// libClient is one goroutine of lib_mixed: a cache-aside reader over a
// pre-generated zipf index stream, so the measured loop holds no RNG and
// formats no key.
type libClient struct {
	spec  streamSpec
	keys  []string // keys[i] is the key of index keyBase+i
	idx   []uint32 // the stream, as offsets into keys
	table [][]byte
	pos   int
	nSets int
	total counters // since the cache was built
}

func newLibClient(spec streamSpec, seed int64) *libClient {
	c := &libClient{spec: spec, table: valueTable(spec.valueSize)}
	c.keys = make([]string, spec.keys)
	for i := range c.keys {
		c.keys[i] = keyString(spec.prefix, uint32(spec.keyBase+i))
	}
	g := newGen(spec, seed)
	c.idx = make([]uint32, libStream)
	for i := range c.idx {
		c.idx[i] = g.draw() - uint32(spec.keyBase)
	}
	return c
}

func (c *libClient) set(cache *cpacache.Cache[string, []byte], i uint32, cnt *counters) {
	cnt.sent++
	c.nSets++
	val := valueOf(c.table, uint32(c.spec.keyBase)+i)
	var err error
	if c.spec.ttlEvery > 0 && c.nSets%c.spec.ttlEvery == 0 {
		err = cache.SetTenantTTL(c.spec.tenant, c.keys[i], val, time.Duration(c.spec.ttlMs)*time.Millisecond)
	} else {
		err = cache.SetTenant(c.spec.tenant, c.keys[i], val)
	}
	if err != nil {
		cnt.failed++
	} else {
		cnt.sets++
	}
}

// run looks keys up block by block until ops calls have been made (ops >
// 0) or the deadline has passed, repairing each miss with a SET. With
// samples non-nil it records every block's wall time in microseconds;
// with spans non-nil, every block as a span.
func (c *libClient) run(ctx context.Context, cache *cpacache.Cache[string, []byte], ops int, deadline time.Time, samples *[]float64, spans *spanBuf) counters {
	var cnt counters
	start := time.Now()
	for ctx.Err() == nil {
		if ops > 0 && cnt.sent >= ops || !deadline.IsZero() && !start.Before(deadline) {
			break
		}
		before := cnt.sent
		for range libBlock {
			i := c.idx[c.pos]
			c.pos = (c.pos + 1) & (libStream - 1)
			cnt.sent++
			cnt.gets++
			if v, ok := cache.GetTenant(c.spec.tenant, c.keys[i]); ok {
				cnt.hits++
				if !bytes.Equal(v, valueOf(c.table, uint32(c.spec.keyBase)+i)) {
					cnt.failed++
				}
			} else {
				c.set(cache, i, &cnt)
			}
		}
		end := time.Now()
		if samples != nil {
			*samples = append(*samples, float64(end.Sub(start))/1e3)
		}
		if spans != nil {
			spans.add("lib.block", start, end, 0, 0, cnt.sent-before)
		}
		start = end
	}
	c.total.add(cnt)
	return cnt
}

// libSession is the daemon's cache, built by server.New exactly as
// cpacached builds it, preloaded and warmed up.
type libSession struct {
	srv     *server.Server
	cache   *cpacache.Cache[string, []byte]
	clients []*libClient
	setup   time.Duration
}

func newLibSession(ctx context.Context, w *benchWorkload, clients []*libClient) (*libSession, error) {
	start := time.Now()
	srv, err := server.New(w.server)
	if err != nil {
		return nil, err
	}
	s := &libSession{srv: srv, cache: srv.Cache(), clients: clients}
	for _, c := range clients {
		c.pos, c.nSets, c.total = 0, 0, counters{}
	}
	if w.preload {
		// Fill to capacity with each tenant's most popular keys.
		share := s.cache.Capacity() / len(clients)
		for _, c := range clients {
			var cnt counters
			for i := range min(share, len(c.keys)) {
				c.set(s.cache, uint32(i), &cnt)
			}
			c.total.add(cnt)
		}
	}
	s.each(func(_ int, c *libClient) counters {
		return c.run(ctx, s.cache, w.warmup/len(clients), time.Time{}, nil, nil)
	})
	s.setup = time.Since(start)
	return s, ctx.Err()
}

// each runs fn for every client at once and returns the summed counters.
func (s *libSession) each(fn func(i int, c *libClient) counters) counters {
	per := make([]counters, len(s.clients))
	var wg sync.WaitGroup
	for i, c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			per[i] = fn(i, c)
		}()
	}
	wg.Wait()
	var total counters
	for _, c := range per {
		total.add(c)
	}
	return total
}

func (s *libSession) totals() counters {
	var t counters
	for _, c := range s.clients {
		t.add(c.total)
	}
	return t
}

// close stops the cache's background goroutines.
func (s *libSession) close() error { return s.srv.Shutdown(context.Background()) }

// crossCheck compares the cache's own per-tenant hit and miss counters
// with the clients', the library's counterpart of the INFO cross-check.
func (s *libSession) crossCheck() string {
	stats := s.cache.Stats()
	for _, c := range s.clients {
		st := stats[c.spec.tenant]
		if int(st.Hits) != c.total.hits || int(st.Misses) != c.total.gets-c.total.hits {
			return fmt.Sprintf("tenant %d: cache counts %d hits %d misses, client saw %d and %d",
				c.spec.tenant, st.Hits, st.Misses, c.total.hits, c.total.gets-c.total.hits)
		}
	}
	return ""
}

// runLib measures lib_mixed end to end: one goroutine per tenant calling
// GetTenant/SetTenant on the daemon's cache, no wire.
func runLib(ctx context.Context, w *benchWorkload, seed int64, d time.Duration) (*outcome, error) {
	clients := make([]*libClient, len(w.streams))
	for i, spec := range w.streams {
		clients[i] = newLibClient(spec, clientSeed(seed, i))
	}
	o := &outcome{vals: values{}, correct: true}
	var setupTimes []float64
	var s *libSession
	for i := range setups {
		var err error
		if s, err = newLibSession(ctx, w, clients); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, s.setup.Seconds())
		if i < setups-1 {
			o.count(s.totals())
			if err := s.close(); err != nil {
				return nil, err
			}
		}
	}

	samples := make([][]float64, len(clients))
	cpu0, err := procCPU(0)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(d)
	win := s.each(func(i int, c *libClient) counters {
		return c.run(ctx, s.cache, 0, deadline, &samples[i], nil)
	})
	wall := time.Since(start)
	cpu1, err := procCPU(0)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if mismatch := s.crossCheck(); mismatch != "" {
		o.correct = false
		o.notef("Stats cross-check FAILED: %s", mismatch)
	}
	snap := s.cache.Snapshot()
	o.count(s.totals())
	if err := s.close(); err != nil {
		return nil, err
	}
	rss, err := procPeakRSSMB(0)
	if err != nil {
		return nil, err
	}

	all := slices.Concat(samples...)
	slices.Sort(all)
	o.vals["ops_per_s"] = float64(win.sent) / wall.Seconds()
	o.latencyValues(all, fmt.Sprintf("a block of %d lookups with the SETs their misses cause", libBlock))
	o.vals["hit_rate"] = float64(win.hits) / float64(win.gets)
	o.vals["cpu_us_per_op"] = float64(cpu1.sub(cpu0).total().Microseconds()) / float64(win.sent)
	o.vals["peak_rss_mb"] = rss
	o.vals["setup_s"] = median(setupTimes)
	o.okShare()
	var evictions, expirations uint64
	for _, t := range snap.Tenants {
		evictions += t.Evictions
		expirations += t.Expirations
	}
	o.notef("window %.3fs, %d calls (%d GetTenant, %d SetTenant)", wall.Seconds(), win.sent, win.gets, win.sets)
	o.notef("cache: %d evictions, %d expirations, %d rebalances (%d skipped), tenant ways %v",
		evictions, expirations, snap.Rebalances, snap.RebalancesSkipped, snap.Quotas)
	return o, nil
}
