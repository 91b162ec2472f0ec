package main

import (
	"fmt"
	"time"

	"repro/internal/server"
	"repro/pkg/plru"
)

// benchWorkload is one benchmark workload. The wire and library workloads are
// data: a daemon configuration plus one request stream per closed-loop
// client. repro_fig7 has neither; see repro.go.
type benchWorkload struct {
	name string
	why  string

	server   server.Config // the daemon's configuration (flags are derived from it)
	streams  []streamSpec  // one per connection (wire) or goroutine (lib)
	pipeline int           // requests per batch (wire)
	preload  bool          // SET every key (wire) / fill to capacity (lib) before warm-up
	warmup   int           // warm-up requests, split over the clients
}

// The load is a closed loop of nproc clients: cache clients are
// application servers that hold a connection and wait for each reply.
const clients = 2

var wireHotGet = benchWorkload{
	name: "wire_hot_get",
	why:  "everything fits and values are 64 B, so resp, server and the socket do the work and cpacache only its locked hit path",
	server: server.Config{
		Policy: plru.BT, // default 8 x 1024 x 16 geometry: 131072 lines
	},
	streams: func() []streamSpec {
		s := streamSpec{name: "default", prefix: "key:", keys: 65536, zipfS: 1.1, valueSize: 64, setShare: 0.05, scored: true}
		return []streamSpec{s, s}
	}(),
	pipeline: 32,
	preload:  true,
	warmup:   1_000_000,
}

var wireTenantMix = benchWorkload{
	name: "wire_tenant_mix",
	why:  "the paper's scenario on the wire: a scanning tenant against a reusing one under BT masks, with writes, 1 KB bulks, eviction and TTLs",
	server: server.Config{
		Shards: 2, Sets: 256, Ways: 16, Policy: plru.BT, // 8192 lines
		Tenants: []server.TenantConfig{
			{Name: "a", Password: "pa", Ways: 2}, // deliberately adverse initial split
			{Name: "b", Password: "pb", Ways: 14},
		},
		AutoRebalance: 250 * time.Millisecond,
	},
	streams: []streamSpec{
		{name: "a", auth: "pa", tenant: 0, prefix: "a:", keys: 12_000, zipfS: 1.05, valueSize: 256, setShare: 0.02, cacheAside: true, scored: true},
		{name: "b", auth: "pb", tenant: 1, prefix: "b:", keys: 2_000_000, valueSize: 1024, setShare: 0.10, cacheAside: true, ttlMs: 2000},
	},
	pipeline: 16,
	warmup:   500_000,
}

var libMixed = benchWorkload{
	name: "lib_mixed",
	why:  "no wire: the daemon's own Cache[string,[]byte] at 4x capacity, so cpacache, plru and cpapart do the work and resp/server none",
	server: server.Config{
		Shards: 8, Sets: 256, Ways: 16, Policy: plru.BT, // 32768 lines
		Tenants: []server.TenantConfig{
			{Name: "t0", Password: "p0"},
			{Name: "t1", Password: "p1"},
		},
		AutoRebalance: 250 * time.Millisecond,
	},
	streams: []streamSpec{
		{name: "t0", tenant: 0, prefix: "key:", keyBase: 0, keys: 65536, zipfS: 1.05, valueSize: 256, cacheAside: true, ttlMs: 1000, ttlEvery: 8, scored: true},
		{name: "t1", tenant: 1, prefix: "key:", keyBase: 65536, keys: 65536, zipfS: 1.05, valueSize: 256, cacheAside: true, ttlMs: 1000, ttlEvery: 8, scored: true},
	},
	preload: true,
	warmup:  2_000_000,
}

var reproFig7 = benchWorkload{
	name: "repro_fig7",
	why:  "the 71-simulation Figure 7 sweep: internal/cache, cmp, plru and sched do the work and the serving stack none; guards speed and bit-identity",
}

var workloads = []*benchWorkload{&wireHotGet, &wireTenantMix, &libMixed, &reproFig7}

func workloadByName(name string) (*benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *benchWorkload) isWire() bool { return w.pipeline > 0 }

// daemonArgs renders the workload's server.Config as cpacached flags, so
// the daemon and the in-process replays run one configuration.
func (w *benchWorkload) daemonArgs() []string {
	cfg := w.server
	args := []string{"-addr", "127.0.0.1:0", "-policy", cfg.Policy.String()}
	if cfg.Shards != 0 {
		args = append(args, "-shards", fmt.Sprint(cfg.Shards))
	}
	if cfg.Sets != 0 {
		args = append(args, "-sets", fmt.Sprint(cfg.Sets))
	}
	if cfg.Ways != 0 {
		args = append(args, "-ways", fmt.Sprint(cfg.Ways))
	}
	for _, t := range cfg.Tenants {
		args = append(args, "-tenant", fmt.Sprintf("%s:%s:%d", t.Name, t.Password, t.Ways))
	}
	if cfg.AutoRebalance != 0 {
		args = append(args, "-auto-rebalance", cfg.AutoRebalance.String())
	}
	return args
}

// clientSeed derives client i's generator seed from the run's seed.
func clientSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }
