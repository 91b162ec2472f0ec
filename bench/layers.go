package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/resp"
	"repro/internal/server"
	"repro/pkg/cpacache"
	"repro/pkg/cpapart"
	"repro/pkg/plru"
)

// The traced pass times calls into each layer's public functions from the
// benchmark's own files and attributes the daemon's CPU per request to the
// layers: parse + server self + cache op + encode + residual. Its numbers
// are diagnostics; the end-to-end metrics come only from untraced runs.

const (
	replayRequests = 1 << 18 // requests recorded for the layer replays
	replayPasses   = 3       // each replay runs this often, on fresh state
)

// sink keeps results of timed calls alive.
var sink int

// allocMeter sums the heap allocations made inside its during calls.
type allocMeter struct{ mallocs, bytes float64 }

func (a *allocMeter) during(fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	a.mallocs += float64(after.Mallocs - before.Mallocs)
	a.bytes += float64(after.TotalAlloc - before.TotalAlloc)
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// traceWire repeats the wire workload on a fresh daemon for two windows,
// one untraced and one with a span around every step of every batch, and
// reads the daemon's counters at the edges.
func traceWire(ctx context.Context, w *benchWorkload, seed int64, d time.Duration, tr *tracer, o *outcome) error {
	bin, err := buildDaemon(ctx, buildDir)
	if err != nil {
		return err
	}
	s, err := newWireSession(ctx, w, bin, seed)
	if err != nil {
		return err
	}
	defer s.kill() // a no-op once stop has succeeded
	plain, err := s.measure(ctx, d, nil)
	if err != nil {
		return err
	}
	traced, err := s.measure(ctx, d, tr)
	if err != nil {
		return err
	}
	info, mismatch, err := s.info()
	if err != nil {
		return err
	}
	o.count(s.totals())
	drain, err := s.stop()
	if err != nil {
		return err
	}
	if mismatch != "" {
		o.correct = false
		o.notef("INFO cross-check FAILED: %s", mismatch)
	}

	reqs := float64(traced.total.sent)
	v := o.vals
	v["trace.overhead_share"] = 1 - traced.opsPerSec()/plain.opsPerSec()
	v["cpacached.user_us_per_req"] = float64(traced.daemonCPU.user.Microseconds()) / reqs
	v["cpacached.sys_us_per_req"] = float64(traced.daemonCPU.sys.Microseconds()) / reqs
	v["cpacached.startup_ms"] = float64(s.startup.Microseconds()) / 1e3
	v["cpacached.drain_ms"] = float64(drain.Microseconds()) / 1e3
	v["driver.cpu_us_per_req"] = float64(plain.driverCPU.total().Microseconds()) / float64(plain.total.sent)
	v["driver.batches"] = float64(len(plain.samples))
	v["driver.p99_us"] = percentile(plain.samples, 0.99)
	v["driver.p999_us"] = percentile(plain.samples, 0.999)
	v["driver.max_us"] = percentile(plain.samples, 1)
	v["cpacache.evictions"] = float64(info.sumTenants("evictions"))
	v["cpacache.expirations"] = float64(info.sumTenants("expirations"))
	v["cpacache.rebalances"] = float64(info.rebalances)
	v["cpacache.rebalances_skipped"] = float64(info.rebalancesSkipped)
	v["cpacache.tenant_a_ways"] = float64(info.tenantInt(0, "ways"))

	o.notef("wire leg %s: untraced %.0f req/s, traced %.0f req/s; %d requests over the daemon's life, %d evictions",
		w.name, plain.opsPerSec(), traced.opsPerSec(), info.commands, info.sumTenants("evictions"))
	var batch time.Duration
	for _, c := range s.clients {
		t, _ := c.spans.sum("driver.batch")
		batch += t
	}
	for _, name := range []string{"driver.encode", "driver.flush", "driver.wait_first_reply", "driver.read_replies"} {
		var part time.Duration
		for _, c := range s.clients {
			t, _ := c.spans.sum(name)
			part += t
		}
		o.notef("  %-24s %5.1f %% of driver.batch", name, 100*float64(part)/float64(batch))
	}
	return nil
}

// recorded is one request of a recorded stream, ready to be applied to a
// cache without conversions: the key conversion belongs to the server.
type recorded struct {
	kind  uint8
	hit   bool // the GET found its key when the stream was recorded
	key   string
	value []byte
	ttl   time.Duration
}

// recording is one client's share of a recorded stream.
type recording struct {
	spec   streamSpec
	script []byte // AUTH if the stream needs it, then every request frame
	ops    []recorded
}

// commands is the number of frames in the script.
func (r *recording) commands() int { return len(r.ops) + min(len(r.spec.auth), 1) }

// authFrame is the AUTH command a stream's connection starts with, or
// nothing on an open daemon.
func authFrame(spec streamSpec) []byte {
	if spec.auth == "" {
		return nil
	}
	return appendCommand(nil, "AUTH", spec.auth)
}

// model is a fresh server in the state the measured window starts from:
// preloaded and warmed up by the workload's own generators, which are
// left positioned at the first measured request.
type model struct {
	srv    *server.Server
	gens   []*gen
	tables [][][]byte
}

func newModel(w *benchWorkload, seed int64) (*model, error) {
	srv, err := server.New(w.server)
	if err != nil {
		return nil, err
	}
	m := &model{srv: srv}
	cache := srv.Cache()
	for i, spec := range w.streams {
		m.gens = append(m.gens, newGen(spec, clientSeed(seed, i)))
		m.tables = append(m.tables, valueTable(spec.valueSize))
		if w.preload {
			for k := spec.keyBase; k < spec.keyBase+spec.keys; k++ {
				if err := cache.SetTenant(spec.tenant, keyString(spec.prefix, uint32(k)), valueOf(m.tables[i], uint32(k))); err != nil {
					return nil, err
				}
			}
		}
	}
	for sent := 0; sent < w.warmup; {
		for i := range m.gens {
			sent += len(m.batch(w, i, nil))
		}
	}
	return m, nil
}

// batch generates client i's next pipelined batch, applies it to the
// model's cache and feeds the misses back, as the live driver does when
// it reads the batch's replies. With rec non-nil the batch is recorded.
func (m *model) batch(w *benchWorkload, i int, rec *recording) []op {
	g, cache, spec := m.gens[i], m.srv.Cache(), w.streams[i]
	ops := make([]op, w.pipeline)
	for j := range ops {
		ops[j] = g.next()
	}
	for _, o := range ops {
		r := recorded{kind: o.kind, key: keyString(spec.prefix, o.key), value: valueOf(m.tables[i], o.key),
			ttl: time.Duration(o.ttlMs) * time.Millisecond}
		if o.kind == opGet {
			if _, r.hit = cache.GetTenant(spec.tenant, r.key); !r.hit {
				g.miss(o.key)
			}
		} else {
			apply(cache, spec.tenant, r)
		}
		if rec != nil {
			rec.ops = append(rec.ops, r)
			rec.script = appendRequest(rec.script, spec.prefix, o, m.tables[i])
		}
	}
	return ops
}

// apply performs one recorded request on a cache.
func apply(cache *cpacache.Cache[string, []byte], tenant int, r recorded) {
	switch {
	case r.kind == opGet:
		cache.GetTenant(tenant, r.key)
	case r.ttl > 0:
		cache.SetTenantTTL(tenant, r.key, r.value, r.ttl) // no byte budget is set, so no insert can be refused
	default:
		cache.SetTenant(tenant, r.key, r.value)
	}
}

func (m *model) close() error { return m.srv.Shutdown(context.Background()) }

// serve runs the model's Server.Serve on an in-memory listener, hands it
// one connection per script, one after the other, and shuts the model
// down. It returns the summed accept-to-close times.
func (m *model) serve(scripts ...[]byte) (time.Duration, error) {
	ln := newMemListener()
	served := make(chan error, 1)
	go func() { served <- m.srv.Serve(ln) }()
	var total time.Duration
	for _, script := range scripts {
		d, _ := ln.serve(script)
		total += d
	}
	return total, errors.Join(m.close(), <-served)
}

// record regenerates the workload's request stream from the seed: the
// frames the driver would write, in round-robin batches over the clients.
func record(w *benchWorkload, seed int64) ([]recording, error) {
	m, err := newModel(w, seed)
	if err != nil {
		return nil, err
	}
	recs := make([]recording, len(w.streams))
	for i, spec := range w.streams {
		recs[i].spec = spec
		recs[i].script = authFrame(spec)
	}
	for n := 0; n < replayRequests; {
		for i := range recs {
			n += len(m.batch(w, i, &recs[i]))
		}
	}
	return recs, m.close()
}

// traceReplays replays the recorded stream against each serving layer in
// isolation, clients one after the other, and derives the server's self
// time from the differences.
func traceReplays(w *benchWorkload, seed int64, spans *spanBuf, o *outcome) error {
	recs, err := record(w, seed)
	if err != nil {
		return err
	}
	// The replays time each layer's own instructions. With the collector
	// on, its cycles land in whichever replay happens to be running and
	// scale with this process's heap (the recording), not the daemon's; so
	// it is off while a replay is timed and runs between passes. What the
	// daemon pays for collection is therefore part of wire.residual, and
	// the allocs and bytes per request are the handle on it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	root := spans.begin("replay." + w.name)
	var d time.Duration

	// resp: parse the request frames from memory.
	var parse time.Duration
	var parseErr error
	var meter allocMeter
	meter.during(func() {
		for range replayPasses {
			runtime.GC()
			for i := range recs {
				r := resp.NewReader(bytes.NewReader(recs[i].script))
				parse += spans.blocks("resp.parse", root, recs[i].commands(), func(lo, hi int) {
					for range hi - lo {
						if _, err := r.ReadCommand(); err != nil {
							parseErr = err
						}
					}
				})
			}
		}
	})
	if parseErr != nil {
		return fmt.Errorf("replaying the recorded frames: %w", parseErr)
	}
	var commands, requests int // commands include each client's AUTH
	for i := range recs {
		commands += recs[i].commands()
		requests += len(recs[i].ops)
	}
	commands, requests = commands*replayPasses, requests*replayPasses
	o.vals["resp.parse_ns_per_req"] = nsPer(parse, commands)
	o.vals["resp.parse_allocs_per_req"] = meter.mallocs / float64(commands)
	o.vals["resp.parse_bytes_per_req"] = meter.bytes / float64(commands)

	// resp: encode the reply stream, one flush per batch.
	var encode time.Duration
	meter = allocMeter{}
	meter.during(func() {
		for range replayPasses {
			runtime.GC()
			for _, rec := range recs {
				wr := resp.NewWriter(io.Discard)
				encode += spans.blocks("resp.encode", root, len(rec.ops), func(lo, hi int) {
					for i, r := range rec.ops[lo:hi] {
						switch {
						case r.kind == opSet:
							wr.SimpleString("OK")
						case r.hit:
							wr.Bulk(r.value)
						default:
							wr.Null()
						}
						if (lo+i+1)%w.pipeline == 0 {
							wr.Flush() // io.Discard cannot fail
						}
					}
				})
			}
		}
	})
	o.vals["resp.encode_ns_per_req"] = nsPer(encode, requests)
	o.vals["resp.encode_allocs_per_req"] = meter.mallocs / float64(requests)

	// cpacache: the same operations straight on Server.Cache().
	var cacheOp time.Duration
	for range replayPasses {
		m, err := newModel(w, seed)
		if err != nil {
			return err
		}
		c := m.srv.Cache()
		runtime.GC()
		for _, rec := range recs {
			cacheOp += spans.blocks("cpacache.op", root, len(rec.ops), func(lo, hi int) {
				for _, r := range rec.ops[lo:hi] {
					apply(c, rec.spec.tenant, r)
				}
			})
		}
		if err := m.close(); err != nil {
			return err
		}
	}
	o.vals["cpacache.op_ns_per_req"] = nsPer(cacheOp, requests)

	// server: Serve on an in-memory listener, zero kernel.
	var inproc time.Duration
	scripts := make([][]byte, len(recs))
	for i := range recs {
		scripts[i] = recs[i].script
	}
	meter = allocMeter{}
	for range replayPasses {
		m, err := newModel(w, seed)
		if err != nil {
			return err
		}
		runtime.GC()
		id := spans.begin("server.serve")
		meter.during(func() { d, err = m.serve(scripts...) })
		spans.end(id, commands/replayPasses)
		if err != nil {
			return err
		}
		inproc += d
	}
	o.vals["server.inproc_ns_per_req"] = nsPer(inproc, commands)
	o.vals["server.allocs_per_req"] = meter.mallocs / float64(commands)
	o.vals["server.bytes_per_req"] = meter.bytes / float64(commands)
	o.vals["server.self_ns_per_req"] = o.vals["server.inproc_ns_per_req"] - o.vals["resp.parse_ns_per_req"] -
		o.vals["resp.encode_ns_per_req"] - o.vals["cpacache.op_ns_per_req"]

	// server: one INFO.
	const infos = 64
	m, err := newModel(w, seed)
	if err != nil {
		return err
	}
	id := spans.begin("server.info")
	d, err = m.serve(append(authFrame(recs[0].spec), bytes.Repeat(appendCommand(nil, "INFO"), infos)...))
	spans.end(id, infos)
	if err != nil {
		return err
	}
	o.vals["server.info_us"] = float64(d.Microseconds()) / infos
	spans.end(root, requests/replayPasses)
	return nil
}

// attribution derives the residual from the wire leg and the replays and
// notes the table: the layers' shares of the daemon's CPU per request.
func attribution(w *benchWorkload, o *outcome) {
	v := o.vals
	cpu := (v["cpacached.user_us_per_req"] + v["cpacached.sys_us_per_req"]) * 1e3
	v["wire.residual_ns_per_req"] = cpu - v["server.inproc_ns_per_req"]
	v["wire.residual_share"] = v["wire.residual_ns_per_req"] / cpu
	o.notef("attribution, %s (ns of daemon CPU per request):", w.name)
	for _, row := range []struct{ label, name string }{
		{"  resp parse", "resp.parse_ns_per_req"},
		{"+ server self (table, admission, keys)", "server.self_ns_per_req"},
		{"+ cpacache op", "cpacache.op_ns_per_req"},
		{"+ resp encode", "resp.encode_ns_per_req"},
		{"= server in-process", "server.inproc_ns_per_req"},
		{"+ residual (socket, runtime)", "wire.residual_ns_per_req"},
	} {
		o.notef("  %-40s %9.1f", row.label, v[row.name])
	}
	o.notef("  %-40s %9.1f  (residual share %.3f)", "= cpacached user+sys", cpu, v["wire.residual_share"])
}

// traceMicro times single operations of the library layers.
func traceMicro(spans *spanBuf, o *outcome) error {
	root := spans.begin("micro")
	v := o.vals
	per := func(name string, n int, fn func(lo, hi int)) float64 {
		return nsPer(spans.blocks(name, root, n, fn), n)
	}

	// pkg/cpacache: the daemon's option set (server.New), one tenant,
	// 32768 lines, half of them resident for the hit and update cases.
	const resident, n = 1 << 14, 1 << 20
	newCache := func(tenants ...server.TenantConfig) (*server.Server, *cpacache.Cache[string, []byte], error) {
		srv, err := server.New(server.Config{Shards: 8, Sets: 256, Ways: 16, Policy: plru.BT, Tenants: tenants})
		if err != nil {
			return nil, nil, err
		}
		return srv, srv.Cache(), nil
	}
	keys := make([]string, resident+(1<<18))
	for i := range keys {
		keys[i] = keyString("m:", uint32(i))
	}
	val := valueTable(256)[0]
	srv, c, err := newCache()
	if err != nil {
		return err
	}
	for _, k := range keys[:resident] {
		c.SetTenant(0, k, val) // no byte budget is set, so no insert can be refused
	}
	hitLoop := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c.GetTenant(0, keys[i&(resident-1)])
		}
	}
	var meter allocMeter
	meter.during(func() {
		v["cpacache.get_hit_ns"] = per("cpacache.get_hit", n, hitLoop)
		v["cpacache.get_miss_ns"] = per("cpacache.get_miss", n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				c.GetTenant(0, keys[resident+i&(resident-1)])
			}
		})
		v["cpacache.set_update_ns"] = per("cpacache.set_update", n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				c.SetTenant(0, keys[i&(resident-1)], val)
			}
		})
		v["cpacache.set_ttl_ns"] = per("cpacache.set_ttl", n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				c.SetTenantTTL(0, keys[i&(resident-1)], val, time.Hour)
			}
		})
	})
	v["cpacache.allocs_per_op"] = meter.mallocs / (4 * n)

	// Two goroutines on the hit path against one.
	var wg sync.WaitGroup
	threads := make([]*spanBuf, clients)
	for i := range threads {
		threads[i] = spans.tr.thread()
	}
	start := time.Now()
	for _, t := range threads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.blocks("cpacache.par_get_hit", root, n, hitLoop)
		}()
	}
	wg.Wait()
	v["cpacache.par_get_hit_ns"] = nsPer(time.Since(start), clients*n)
	v["cpacache.par_scaling"] = v["cpacache.get_hit_ns"] / v["cpacache.par_get_hit_ns"]
	if err := srv.Shutdown(context.Background()); err != nil {
		return err
	}

	// Inserts into full sets: every SET evicts.
	srv, c, err = newCache()
	if err != nil {
		return err
	}
	for _, k := range keys[:2*c.Capacity()] {
		c.SetTenant(0, k, val)
	}
	fresh := keys[2*c.Capacity():]
	v["cpacache.set_evict_ns"] = per("cpacache.set_evict", len(fresh), func(lo, hi int) {
		for _, k := range fresh[lo:hi] {
			c.SetTenant(0, k, val)
		}
	})
	if err := srv.Shutdown(context.Background()); err != nil {
		return err
	}

	// One Rebalance() of two tenants, each with fresh lookup traffic to
	// profile: a reusing tenant and a scanning one.
	srv, c, err = newCache(server.TenantConfig{Name: "a", Password: "pa"}, server.TenantConfig{Name: "b", Password: "pb"})
	if err != nil {
		return err
	}
	const rebalances = 16
	var rebalance time.Duration
	for r := range rebalances {
		for i := range 1 << 14 {
			for t, k := range []string{keys[i&4095], keys[(r<<14+i)%len(keys)]} {
				if _, ok := c.GetTenant(t, k); !ok {
					c.SetTenant(t, k, val)
				}
			}
		}
		id := spans.begin("cpacache.rebalance")
		start := time.Now()
		_, err := c.Rebalance()
		rebalance += time.Since(start)
		spans.end(id, 1)
		if err != nil {
			return err
		}
	}
	v["cpacache.rebalance_us"] = float64(rebalance.Microseconds()) / rebalances
	if err := srv.Shutdown(context.Background()); err != nil {
		return err
	}

	// pkg/plru through the Policy interface: BT, 16 ways, half-set mask.
	var pol plru.Policy = plru.New(plru.BT, 1024, 16, 2, 1)
	const half = plru.WayMask(0x00FF)
	const pn = 1 << 22
	v["plru.touch_ns"] = per("plru.touch", pn, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			pol.Touch(i&1023, i>>10&15, 0)
		}
	})
	v["plru.victim_ns"] = per("plru.victim", pn, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sink += pol.Victim(i&1023, 0, half)
		}
	})
	v["plru.fill_ns"] = per("plru.fill", pn, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			pol.Fill(i&1023, i>>10&15, 0, uint8(i))
		}
	})

	// pkg/cpapart on two 16-way miss curves: one with a knee, one flat.
	curves := [][]uint64{make([]uint64, 17), make([]uint64, 17)}
	for w := range 17 {
		curves[0][w] = 100_000 / uint64(w+1)
		curves[1][w] = 60_000 - 500*uint64(w)
	}
	var scratch cpapart.Scratch
	dst := make(cpapart.Allocation, 2)
	const an = 1 << 12
	v["cpapart.minmisses_us"] = per("cpapart.minmisses", an, func(lo, hi int) {
		for range hi - lo {
			dst = cpapart.MinMisses{}.AllocateInto(dst, &scratch, curves, 16)
		}
	}) / 1e3
	v["cpapart.buddy_us"] = per("cpapart.buddy", an, func(lo, hi int) {
		for range hi - lo {
			dst = cpapart.BuddyMinMissesInto(dst, &scratch, curves, 16)
		}
	}) / 1e3
	sink += dst.Total()

	// internal/cache: one access of the simulator's 1 MB 16-way BT L2, two
	// cores striding through 4 MB.
	l2 := cache.New(cache.Config{Name: "L2", SizeBytes: 1 << 20, LineBytes: 128, Ways: 16, Policy: plru.BT, Cores: 2, Seed: 1})
	x := uint64(88172645463325252)
	v["cache.access_ns"] = per("cache.access", 1<<21, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			if l2.Access(i&1, x&(4<<20-1)).Hit {
				sink++
			}
		}
	})
	spans.end(root, 0)
	return nil
}

// traceRepro times the reproduction's layers: one simulation alone, then
// the Figure 7 sweep on one worker and on all, which must agree byte for
// byte with each other and with the pinned digest.
func traceRepro(ctx context.Context, spans *spanBuf, o *outcome) error {
	plan, err := planFig7(fig7Options(0))
	if err != nil {
		return err
	}
	root := spans.begin("repro")
	defer func() { spans.end(root, 0) }()

	// internal/cmp: the first two-thread workload under M-BT, alone.
	const jobs = 5
	cfg, err := core.ParseAcronym("M-BT")
	if err != nil {
		return err
	}
	var single time.Duration
	for range jobs {
		h := experiments.New(fig7Options(1))
		id := spans.begin("cmp.run")
		start := time.Now()
		_, err := h.Run(ctx, plan.mixes[0], cfg.Policy, "M-BT", h.Options().L2SizeKB)
		single += time.Since(start)
		spans.end(id, int(h.Options().Insts)*plan.mixes[0].Threads())
		if err != nil {
			return err
		}
	}
	insts := float64(jobs * plan.mixes[0].Threads() * int(fig7Options(1).Insts))
	o.vals["cmp.minst_per_s_1job"] = insts / single.Seconds() / 1e6

	want, walls := pinnedDigest(), [2]time.Duration{}
	for i, parallelism := range []int{1, 0} {
		id := spans.begin(fmt.Sprintf("experiments.fig7(parallelism=%d)", parallelism))
		csv, wall, _, err := fig7Sweep(ctx, parallelism, plan)
		spans.end(id, int(plan.insts))
		if err != nil {
			return err
		}
		walls[i] = wall
		o.attempted += int(plan.insts)
		if got := csvDigest(csv); got != want {
			o.failed += int(plan.insts)
			o.notef("Fig7 CSV digest at parallelism %d is %s, pinned %s", parallelism, got, want)
		}
	}
	o.vals["experiments.fig7_serial_s"] = walls[0].Seconds()
	o.vals["sched.speedup"] = walls[0].Seconds() / walls[1].Seconds()
	o.vals["sched.jobs"] = float64(plan.sims)
	return nil
}

// runTraced is the traced pass: the wire leg (on w if it is a wire
// workload, on wire_hot_get otherwise), the layer replays of the same
// stream, the library micro-layers and the reproduction's layers. Every
// traced run reports every per-layer metric.
func runTraced(ctx context.Context, w *benchWorkload, seed int64, d time.Duration, traceOut string) (*outcome, error) {
	if !w.isWire() {
		w = &wireHotGet
	}
	tr := newTracer()
	spans := tr.thread()
	o := &outcome{vals: values{}, correct: true}
	if err := traceWire(ctx, w, seed, d/3, tr, o); err != nil {
		return nil, err
	}
	if err := traceReplays(w, seed, spans, o); err != nil {
		return nil, err
	}
	attribution(w, o)
	if err := traceMicro(spans, o); err != nil {
		return nil, err
	}
	if err := traceRepro(ctx, spans, o); err != nil {
		return nil, err
	}
	n, err := tr.write(traceOut)
	if err != nil {
		return nil, err
	}
	o.notef("%d spans written to %s (Chrome trace-event JSON)", n, traceOut)
	return o, nil
}
