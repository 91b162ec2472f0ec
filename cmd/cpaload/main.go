// Command cpaload is a memtier-style load driver for cpacached: N
// connections, pipelined GET/SET batches, configurable key space and
// zipf skew, reporting req/s and latency percentiles. With -json it also
// writes the run as a JSON report: command, host, workload and results.
//
// Usage:
//
//	cpaload -addr 127.0.0.1:6379 -conns 8 -pipeline 32 -requests 500000 \
//	    -keyspace 50000 -value-size 256 -set-ratio 0.2 -zipf 1.2
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/loadgen"
)

// report is the -json output document.
type report struct {
	Description string             `json:"description"`
	Command     string             `json:"command"`
	Host        map[string]any     `json:"host"`
	Workload    map[string]any     `json:"workload"`
	Results     map[string]float64 `json:"results"`
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:6379", "cpacached address")
		conns     = flag.Int("conns", 4, "concurrent connections")
		pipeline  = flag.Int("pipeline", 16, "pipelined commands per batch")
		requests  = flag.Int("requests", 100_000, "total requests")
		duration  = flag.Duration("duration", 0, "wall-clock cap (0 = run to -requests)")
		keyspace  = flag.Int("keyspace", 10_000, "distinct keys")
		valueSize = flag.Int("value-size", 128, "value bytes")
		setRatio  = flag.Float64("set-ratio", 0.1, "fraction of SETs (0..1)")
		zipf      = flag.Float64("zipf", 0, "zipf skew s (>1 skews; <=1 uniform)")
		ttl       = flag.Duration("ttl", 0, "SET TTL via PX (0 = none)")
		auth      = flag.String("auth", "", "AUTH password")
		seed      = flag.Int64("seed", 1, "RNG seed")
		reconnect = flag.Bool("reconnect", false, "survive connection faults: reconnect with backoff and retry unacknowledged requests")
		reqTO     = flag.Duration("request-timeout", 0, "per-batch I/O deadline; with -reconnect a timed-out batch is retried (0 = none)")
		jsonOut   = flag.String("json", "", "write a JSON report to this file ('-' = stdout)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	res, err := loadgen.Run(ctx, loadgen.Config{
		Addr:      *addr,
		Conns:     *conns,
		Pipeline:  *pipeline,
		Requests:  *requests,
		Duration:  *duration,
		KeySpace:  *keyspace,
		ValueSize: *valueSize,
		SetRatio:  *setRatio,
		ZipfS:     *zipf,
		TTL:       *ttl,
		Auth:      *auth,
		Seed:      *seed,

		Reconnect:      *reconnect,
		RequestTimeout: *reqTO,
	})
	if err != nil {
		log.Fatalf("cpaload: %v", err)
	}

	fmt.Printf("%d requests in %v: %.0f req/s (%d conns × %d pipeline)\n",
		res.Requests, res.Elapsed.Round(time.Millisecond), res.ReqPerSec, *conns, *pipeline)
	fmt.Printf("  gets=%d sets=%d hit_rate=%.2f%% error_replies=%d\n",
		res.Gets, res.Sets, 100*res.HitRate, res.ErrReplys)
	fmt.Printf("  latency p50=%v p90=%v p99=%v p99.9=%v max=%v\n",
		res.P50, res.P90, res.P99, res.P999, res.Max)
	if *reconnect || res.RateLimited > 0 || res.RejectedConns > 0 || res.OOMRejected > 0 || res.RetriedOps > 0 || res.Reconnects > 0 {
		fmt.Printf("  rate_limited=%d rejected_conns=%d oom_rejected=%d retried_ops=%d reconnects=%d\n",
			res.RateLimited, res.RejectedConns, res.OOMRejected, res.RetriedOps, res.Reconnects)
	}

	if *jsonOut == "" {
		return
	}
	rep := report{
		Description: "cpacached req/s baseline driven by cpaload",
		Command:     strings.Join(os.Args, " "),
		Host: map[string]any{
			"cpus":       runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
		},
		Workload: map[string]any{
			"conns":      *conns,
			"pipeline":   *pipeline,
			"requests":   *requests,
			"keyspace":   *keyspace,
			"value_size": *valueSize,
			"set_ratio":  *setRatio,
			"zipf":       *zipf,
		},
		Results: map[string]float64{
			"req_per_sec":    res.ReqPerSec,
			"hit_rate":       res.HitRate,
			"p50_us":         float64(res.P50.Microseconds()),
			"p99_us":         float64(res.P99.Microseconds()),
			"p999_us":        float64(res.P999.Microseconds()),
			"rate_limited":   float64(res.RateLimited),
			"rejected_conns": float64(res.RejectedConns),
			"oom_rejected":   float64(res.OOMRejected),
			"retried_ops":    float64(res.RetriedOps),
			"reconnects":     float64(res.Reconnects),
		},
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatalf("cpaload: %v", err)
	}
	out = append(out, '\n')
	if *jsonOut == "-" {
		os.Stdout.Write(out)
		return
	}
	if err := os.WriteFile(*jsonOut, out, 0o644); err != nil {
		log.Fatalf("cpaload: %v", err)
	}
}
