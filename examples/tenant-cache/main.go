// Tenant-cache: an HTTP service in which N tenants share one
// cpacache.Cache, each with a way quota enforced through the paper's
// replacement masks, and the full lifecycle subsystem on: per-entry TTLs
// with a background sweeper, byte-cost accounting with per-tenant
// budgets, a background auto-rebalance ticker that moves ways to
// whichever tenant's observed hit curves can use them — no admin call
// required — and online policy auto-selection: each tenant's
// replacement policy is scored against the alternatives in a shadow
// directory and switched at rebalance boundaries when another candidate
// provably serves its traffic better.
//
// Run the demo workload (no network needed):
//
//	go run ./examples/tenant-cache -demo
//
// Or serve:
//
//	go run ./examples/tenant-cache -listen :8080
//	curl 'localhost:8080/get?tenant=0&key=user:17'
//	curl -X PUT 'localhost:8080/set?tenant=0&key=user:17&value=alice'
//	curl -X PUT 'localhost:8080/set?tenant=0&key=tmp:1&value=x&ttl=5s'
//	curl 'localhost:8080/stats'
//	curl 'localhost:8080/metrics'
//	curl -X POST 'localhost:8080/rebalance'   # manual override; the ticker does this on its own
//
// The demo drives a cache-hungry tenant (a wide key loop), a medium
// service and a churning log-ingest tenant (never-repeating keys, every
// entry TTL'd) against even initial quotas, prints each tenant's hit
// rate, keeps the traffic running until the background ticker has
// repartitioned from the observed curves — there is no Rebalance call in
// the demo — and prints the shifted hit rates: the hungry tenant's rate
// rises because MinMisses hands it the ways the churner provably cannot
// use.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/pkg/cpacache"
	"repro/pkg/plru"
)

const tenants = 3

// cacheCost charges each entry its string payload plus a fixed slot
// overhead, the usual approximation for an in-process string cache.
func cacheCost(k, v string) uint64 { return uint64(len(k) + len(v) + 48) }

func newCache(auto time.Duration, sink cpacache.MetricsSink) (*cpacache.Cache[string, string], error) {
	return cpacache.New[string, string](
		cpacache.WithShards(4),
		cpacache.WithSets(64),
		cpacache.WithWays(16),
		cpacache.WithPolicy(plru.LRU),
		// Score LRU, AWRP and ARC per tenant in a shadow directory and
		// switch at rebalance boundaries; the churner's never-repeating
		// stream and the scanner's loop reward different policies.
		cpacache.WithPolicyAutoSelect(plru.AWRP, plru.ARC),
		cpacache.WithPartitions(tenants),
		cpacache.WithProfileSampling(1),
		cpacache.WithCost(cacheCost),
		cpacache.WithTTLSweep(50*time.Millisecond),
		cpacache.WithAutoRebalance(auto),
		// Demand at least a modest profiled window and a 2% predicted
		// gain before the ticker thrashes the masks.
		cpacache.WithRebalanceHysteresis(0.02, 256),
		cpacache.WithMetricsSink(sink),
	)
}

func main() {
	var (
		listen = flag.String("listen", "", "address to serve HTTP on (e.g. :8080)")
		demo   = flag.Bool("demo", false, "run the synthetic 3-tenant workload and exit")
		auto   = flag.Duration("auto", 2*time.Second, "auto-rebalance interval (0 disables the ticker; the demo defaults to a snappier 150ms)")
	)
	flag.Parse()
	// The demo's whole point is ticker-driven rebalancing, so its default
	// interval is short; an explicit -auto still wins in either mode.
	autoSet := false
	flag.Visit(func(f *flag.Flag) { autoSet = autoSet || f.Name == "auto" })

	switch {
	case *demo:
		interval := *auto
		if !autoSet {
			interval = 150 * time.Millisecond
		}
		if interval <= 0 {
			log.Fatal("the demo needs the auto-rebalance ticker; pass -auto > 0")
		}
		if err := runDemo(os.Stdout, interval); err != nil {
			log.Fatal(err)
		}
	case *listen != "":
		c, err := newCache(*auto, cpacache.MetricsSink{
			Rebalance: func(e cpacache.RebalanceEvent) {
				if e.Applied {
					log.Printf("rebalance: %v -> %v (auto=%v, %d samples)", e.Old, e.New, e.Auto, e.SampledAccesses)
				}
			},
			PolicySwitch: func(e cpacache.PolicySwitchEvent) {
				log.Printf("policy switch: tenant %d %v -> %v (%d window accesses)", e.Tenant, e.From, e.To, e.WindowAccesses)
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		log.Printf("tenant-cache serving on %s (%d tenants, %d ways, auto-rebalance %v)",
			*listen, tenants, c.Ways(), *auto)
		log.Fatal(http.ListenAndServe(*listen, newMux(c)))
	default:
		fmt.Println("nothing to do: pass -demo or -listen :8080 (see -h)")
	}
}

// newMux wires the cache into a small JSON-over-HTTP API. Every data
// endpoint takes a tenant id so the server can enforce per-tenant quotas;
// a production deployment would derive the tenant from auth instead.
func newMux(c *cpacache.Cache[string, string]) *http.ServeMux {
	mux := http.NewServeMux()

	tenantOf := func(r *http.Request) (int, error) {
		t, err := strconv.Atoi(r.URL.Query().Get("tenant"))
		if err != nil || t < 0 || t >= tenants {
			return 0, fmt.Errorf("tenant must be in [0,%d)", tenants)
		}
		return t, nil
	}

	mux.HandleFunc("GET /get", func(w http.ResponseWriter, r *http.Request) {
		t, err := tenantOf(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		v, ok := c.GetTenant(t, r.URL.Query().Get("key"))
		if !ok {
			http.Error(w, "miss", http.StatusNotFound)
			return
		}
		fmt.Fprintln(w, v)
	})

	mux.HandleFunc("PUT /set", func(w http.ResponseWriter, r *http.Request) {
		t, err := tenantOf(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		q := r.URL.Query()
		if ttlStr := q.Get("ttl"); ttlStr != "" {
			ttl, err := time.ParseDuration(ttlStr)
			if err != nil {
				http.Error(w, "bad ttl: "+err.Error(), http.StatusBadRequest)
				return
			}
			c.SetTenantTTL(t, q.Get("key"), q.Get("value"), ttl)
		} else {
			c.SetTenant(t, q.Get("key"), q.Get("value"))
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		type tenantReport struct {
			Quota       int     `json:"quota_ways"`
			Policy      string  `json:"policy"`
			Hits        uint64  `json:"hits"`
			Misses      uint64  `json:"misses"`
			Evictions   uint64  `json:"evictions"`
			Expirations uint64  `json:"expirations"`
			Bytes       uint64  `json:"bytes_resident"`
			HitRate     float64 `json:"hit_rate"`
		}
		quotas, stats, pols := c.Quotas(), c.Stats(), c.TenantPolicies()
		out := make([]tenantReport, tenants)
		for t := range out {
			out[t] = tenantReport{
				Quota: quotas[t], Policy: pols[t].String(),
				Hits: stats[t].Hits, Misses: stats[t].Misses,
				Evictions: stats[t].Evictions, Expirations: stats[t].Expirations,
				Bytes: stats[t].Bytes, HitRate: stats[t].HitRate(),
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(c.Snapshot())
	})

	mux.HandleFunc("POST /rebalance", func(w http.ResponseWriter, r *http.Request) {
		quotas, err := c.Rebalance()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"quotas": quotas})
	})

	mux.HandleFunc("PUT /budgets", func(w http.ResponseWriter, r *http.Request) {
		var budgets []uint64
		if err := json.NewDecoder(r.Body).Decode(&budgets); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := c.SetBudgets(budgets); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	return mux
}

// tenantWorkload is one tenant's synthetic traffic. Looping tenants cycle
// over `keys` distinct keys — the classic worst case for an undersized LRU
// partition (hit rate falls off a cliff when the quota is below the loop
// length). A churning tenant writes `keys` never-repeating keys per round
// (log ingest): it gains nothing from cache space but keeps every set
// full, so without quotas its evictions shred its neighbors; its entries
// carry a TTL so the sweeper reclaims whatever replacement has not.
type tenantWorkload struct {
	name  string
	keys  int
	churn bool
}

var demoWorkloads = [tenants]tenantWorkload{
	// The scanner's loop (2000 keys ≈ 7.8 per set) thrashes inside its
	// even-split quota (6 of 16 ways) but fits the share MinMisses hands
	// it once the curves show the churner can't use cache at all.
	{name: "scanner (hungry)", keys: 2000},
	{name: "service (medium)", keys: 200},
	{name: "logger (churn)", keys: 500, churn: true},
}

// churnCounter makes the logger's keys unique across rounds and intervals.
var churnCounter int

// driveBatch is the per-round scratch drive reuses: each tenant's traffic
// goes through GetBatch, and only the keys that missed are re-inserted
// with SetBatch. Both are per-key loops inside cpacache; batching here
// just keeps the cache-aside pattern to two calls per round.
var driveBatch struct {
	keys, vals, missK, missV []string
	oks                      []bool
}

// drive runs `rounds` passes of every tenant's traffic and returns each
// tenant's hit rate over the interval (stats deltas, not lifetime). The
// churner's re-inserts carry a short TTL.
func drive(c *cpacache.Cache[string, string], rounds int) [tenants]float64 {
	const batch = 128
	b := &driveBatch
	if cap(b.keys) < batch {
		b.keys = make([]string, 0, batch)
		b.vals = make([]string, batch)
		b.oks = make([]bool, batch)
		b.missK = make([]string, 0, batch)
		b.missV = make([]string, 0, batch)
	}
	flush := func(t int, churn bool) {
		if len(b.keys) == 0 {
			return
		}
		c.GetBatch(t, b.keys, b.vals, b.oks)
		b.missK, b.missV = b.missK[:0], b.missV[:0]
		for i, ok := range b.oks[:len(b.keys)] {
			if !ok {
				b.missK = append(b.missK, b.keys[i])
				b.missV = append(b.missV, b.keys[i])
			}
		}
		if churn {
			// Log entries are only read back briefly: a short TTL lets
			// the sweeper reclaim them instead of waiting for eviction.
			for i := range b.missK {
				c.SetTenantTTL(t, b.missK[i], b.missV[i], 300*time.Millisecond)
			}
		} else {
			c.SetBatch(t, b.missK, b.missV)
		}
		b.keys = b.keys[:0]
	}
	before := c.Stats()
	for r := 0; r < rounds; r++ {
		for t, wl := range demoWorkloads {
			for k := 0; k < wl.keys; k++ {
				var key string
				if wl.churn {
					churnCounter++
					key = fmt.Sprintf("t%d:%d", t, churnCounter)
				} else {
					key = fmt.Sprintf("t%d:%d", t, k)
				}
				b.keys = append(b.keys, key)
				if len(b.keys) == batch {
					flush(t, wl.churn)
				}
			}
			flush(t, wl.churn)
		}
	}
	after := c.Stats()
	var rates [tenants]float64
	for t := range rates {
		hits := after[t].Hits - before[t].Hits
		total := hits + after[t].Misses - before[t].Misses
		if total > 0 {
			rates[t] = float64(hits) / float64(total)
		}
	}
	return rates
}

func printRates(w io.Writer, rates [tenants]float64) {
	for t, wl := range demoWorkloads {
		fmt.Fprintf(w, "  %-18s %5d keys  hit rate %.3f\n", wl.name, wl.keys, rates[t])
	}
}

// runDemo drives the demo workload and writes its report to w. The sink
// callbacks write from the ticker's goroutine.
func runDemo(w io.Writer, interval time.Duration) error {
	// The ticker does all repartitioning in this demo. The sink prints
	// each applied decision.
	c, err := newCache(interval, cpacache.MetricsSink{
		Rebalance: func(e cpacache.RebalanceEvent) {
			if e.Applied {
				fmt.Fprintf(w, "  [ticker] rebalanced %v -> %v (%d profiled accesses)\n",
					e.Old, e.New, e.SampledAccesses)
			}
		},
		PolicySwitch: func(e cpacache.PolicySwitchEvent) {
			fmt.Fprintf(w, "  [ticker] tenant %d policy %v -> %v (shadow-scored over %d accesses)\n",
				e.Tenant, e.From, e.To, e.WindowAccesses)
		},
	})
	if err != nil {
		return err
	}
	defer c.Close()

	fmt.Fprintf(w, "capacity %d entries = %d shards x %d sets x %d ways; %d tenants\n\n",
		c.Capacity(), c.Shards(), c.Sets(), c.Ways(), tenants)

	fmt.Fprintln(w, "== interval 1: even quotas", c.Quotas(), "==")
	printRates(w, drive(c, 30))

	fmt.Fprintln(w, "\n== keep driving; the background ticker repartitions on its own ==")
	deadline := time.Now().Add(30 * time.Second)
	for c.Snapshot().Rebalances == 0 && time.Now().Before(deadline) {
		drive(c, 2)
	}
	if c.Snapshot().Rebalances == 0 {
		return errors.New("auto-rebalance never fired (is the ticker disabled?)")
	}

	fmt.Fprintln(w, "\n== interval 2: ticker-chosen quotas", c.Quotas(), "==")
	printRates(w, drive(c, 30))

	// Give the sweeper a beat to reclaim the logger's TTL'd entries that
	// nothing will ever touch again.
	sweepWait := time.Now().Add(5 * time.Second)
	for c.Snapshot().SweepExpired == 0 && time.Now().Before(sweepWait) {
		time.Sleep(50 * time.Millisecond)
	}
	snap := c.Snapshot()
	fmt.Fprintf(w, "\nlifecycle: %d auto/manual rebalances applied, %d held back by hysteresis,\n",
		snap.Rebalances, snap.RebalancesSkipped)
	var expir uint64
	for _, ts := range snap.Tenants {
		expir += ts.Expirations
	}
	fmt.Fprintf(w, "%d TTL'd log entries reclaimed (%d by the background sweeper), %d bytes resident\n",
		expir, snap.SweepExpired, snap.Tenants[0].Bytes+snap.Tenants[1].Bytes+snap.Tenants[2].Bytes)
	fmt.Fprintf(w, "per-tenant policies after %d shadow-scored switch(es): %v\n",
		snap.PolicySwitches, snap.Policies)
	fmt.Fprintln(w, "\nways moved toward the tenant whose miss curve said it could use")
	fmt.Fprintln(w, "them — without any Rebalance call; the churner is walled off at one")
	fmt.Fprintln(w, "way and loses nothing, because a never-repeating key stream cannot")
	fmt.Fprintln(w, "hit no matter its share, and its TTL'd entries expire on their own.")
	return nil
}
