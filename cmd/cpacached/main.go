// Command cpacached is a multi-tenant RESP (redis-compatible) cache
// server over pkg/cpacache: way-partitioned tenants with pLRU
// replacement per the paper's partitioning design, byte budgets, TTLs,
// and pipelined GET/SET/MGET/MSET/DEL/EXISTS/TTL/AUTH/INFO.
//
// Usage:
//
//	cpacached -addr :6379 -ways 16 -policy bt \
//	    -tenant gold:secret1:12:1073741824 -tenant lead:secret2:4
//
// Each -tenant flag is name:password[:ways[:budget-bytes]]; repeat it
// per tenant. With no -tenant the server is a single open tenant (no
// AUTH). SIGTERM/SIGINT drain gracefully: in-flight pipelines finish,
// then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/pkg/plru"
)

// tenantFlags collects repeated -tenant specs.
type tenantFlags []server.TenantConfig

func (t *tenantFlags) String() string { return fmt.Sprintf("%d tenants", len(*t)) }

func (t *tenantFlags) Set(spec string) error {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || len(parts) > 4 || parts[0] == "" || parts[1] == "" {
		return fmt.Errorf("want name:password[:ways[:budget]], got %q", spec)
	}
	tc := server.TenantConfig{Name: parts[0], Password: parts[1]}
	if len(parts) >= 3 {
		n, err := strconv.Atoi(parts[2])
		if err != nil || n < 0 {
			return fmt.Errorf("bad ways in %q", spec)
		}
		tc.Ways = n
	}
	if len(parts) == 4 {
		n, err := strconv.ParseUint(parts[3], 10, 64)
		if err != nil {
			return fmt.Errorf("bad budget in %q", spec)
		}
		tc.Budget = n
	}
	*t = append(*t, tc)
	return nil
}

func main() {
	var (
		addr         = flag.String("addr", ":6379", "listen address (host:port; port 0 picks a free port)")
		shards       = flag.Int("shards", 8, "cache shards, a power of two (capacity is shards × sets × ways; the cache picks its own finer lock granularity)")
		sets         = flag.Int("sets", 1024, "sets per shard")
		ways         = flag.Int("ways", 16, "ways per set (associativity)")
		policy       = flag.String("policy", "bt", "replacement policy: lru, nru, bt, random, awrp, arc")
		autoSelect   = flag.Bool("policy-autoselect", false, "score candidate policies online and switch per tenant at rebalance boundaries (pair with -auto-rebalance)")
		defaultTTL   = flag.Duration("default-ttl", 0, "TTL applied to SETs without EX/PX (0 = none)")
		maxBytes     = flag.Uint64("max-bytes", 0, "cap on resident bytes (key+value); inserts over the cap evict-on-write and writes past the high watermark get -OOM (0 = uncapped)")
		hardBudgets  = flag.Bool("hard-budgets", false, "enforce per-tenant byte budgets evict-on-write instead of only steering rebalances")
		highMark     = flag.Float64("high-watermark", 0, "fraction of -max-bytes at which writes get -OOM (0 = default 0.9)")
		lowMark      = flag.Float64("low-watermark", 0, "fraction of -max-bytes below which OOM/aggressive pressure clears (0 = default 0.75)")
		rebalance    = flag.Duration("auto-rebalance", 0, "background repartition interval (0 = off)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "max wait for in-flight pipelines on shutdown")
		maxConns     = flag.Int("max-conns", 0, "max concurrent client connections; over-cap connects get -ERR and close (0 = unlimited)")
		maxPerTenant = flag.Int("max-conns-per-tenant", 0, "max concurrent connections per tenant (0 = unlimited)")
		rateOps      = flag.Float64("rate-limit-ops", 0, "per-tenant command rate limit in ops/s; throttled commands get -BUSY (0 = unlimited)")
		rateBytes    = flag.Float64("rate-limit-bytes", 0, "per-tenant request-payload rate limit in bytes/s (0 = unlimited)")
		readTimeout  = flag.Duration("read-timeout", 0, "per-connection read/idle deadline; slow or idle clients are evicted (0 = none)")
		writeTimeout = flag.Duration("write-timeout", 0, "per-connection reply-flush deadline (0 = none)")
		faultSpec    = flag.String("fault-spec", "", "TESTS ONLY: inject faults into the listener, e.g. seed=7,accept-err=0.05,latency=0.02:2ms,partial-write=0.02,reset=0.02")
		tenants      tenantFlags
	)
	flag.Var(&tenants, "tenant", "tenant spec name:password[:ways[:budget-bytes]] (repeatable)")
	flag.Parse()

	kind, err := plru.ParseKind(*policy)
	if err != nil {
		log.Fatalf("cpacached: %v", err)
	}
	fault, err := faultinject.Parse(*faultSpec)
	if err != nil {
		log.Fatalf("cpacached: %v", err)
	}
	srv, err := server.New(server.Config{
		Shards:            *shards,
		Sets:              *sets,
		Ways:              *ways,
		Policy:            kind,
		PolicyAutoSelect:  *autoSelect,
		Tenants:           tenants,
		DefaultTTL:        *defaultTTL,
		MaxBytes:          *maxBytes,
		HardBudgets:       *hardBudgets,
		HighWatermark:     *highMark,
		LowWatermark:      *lowMark,
		AutoRebalance:     *rebalance,
		MaxConns:          *maxConns,
		MaxConnsPerTenant: *maxPerTenant,
		RateLimitOps:      *rateOps,
		RateLimitBytes:    *rateBytes,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		Logf:              log.Printf,
	})
	if err != nil {
		log.Fatalf("cpacached: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("cpacached: %v", err)
	}
	if fault.Enabled() {
		log.Printf("cpacached FAULT INJECTION ACTIVE (tests only): %s", *faultSpec)
		ln = faultinject.WrapListener(ln, fault)
	}

	// Shutdown runs off the signal goroutine; Serve returns as soon as
	// the listener closes, so main must wait for the drain to finish
	// before exiting or the final connections (and log lines) are cut off.
	shutdownDone := make(chan error, 1)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		sig := <-sigs
		log.Printf("cpacached received %s, draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	if err := srv.Serve(ln); err != nil {
		log.Fatalf("cpacached: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		log.Printf("cpacached drain incomplete: %v", err)
		os.Exit(1)
	}
}
