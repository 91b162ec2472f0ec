// Command cpasim runs one CMP simulation and reports per-thread and
// cache-level results, including the partition decisions the CPA made.
//
// Examples:
//
//	cpasim -workload 2T_04 -config M-0.75N
//	cpasim -benchmarks mcf,crafty -config C-L -size 1024
//	cpasim -workload 8T_01 -policy BT            (non-partitioned BT)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/cache"
	"repro/internal/cmp"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/optref"
	"repro/internal/workload"
	"repro/pkg/cpapart"
	"repro/pkg/plru"
)

func main() {
	var (
		wlName     = flag.String("workload", "", "Table II workload name (e.g. 2T_04)")
		benchmarks = flag.String("benchmarks", "", "comma-separated benchmark list (alternative to -workload)")
		config     = flag.String("config", "", "CPA acronym (C-L, M-L, M-1.0N, M-0.75N, M-0.5N, M-BT); empty = non-partitioned")
		policy     = flag.String("policy", "LRU", "L2 replacement policy for non-partitioned runs: LRU, NRU, BT, Random, AWRP, ARC")
		sizeKB     = flag.Int("size", 2048, "L2 size in KB")
		insts      = flag.Uint64("insts", 1_000_000, "instructions per thread")
		interval   = flag.Uint64("interval", 250_000, "repartition interval in cycles")
		sample     = flag.Int("sample", 32, "ATD set-sampling rate")
		showParts  = flag.Bool("partitions", false, "log every repartition decision")
		optFlag    = flag.Bool("opt", false, "record the demand-access trace and report the Belady/OPT hit rate alongside")
	)
	flag.Parse()

	w, err := resolveWorkload(*wlName, *benchmarks)
	if err != nil {
		fatal(err)
	}

	kind, err := plru.ParseKind(*policy)
	if err != nil {
		fatal(err)
	}
	var cpaCfg *core.Config
	if *config != "" {
		cfg, err := core.ParseAcronym(*config)
		if err != nil {
			fatal(err)
		}
		cfg.Interval = *interval
		cfg.SampleRate = *sample
		cpaCfg = &cfg
		kind = cfg.Policy
	}

	simCfg := cmp.Config{
		Workload: w,
		L2: cache.Config{
			Name: "L2", SizeBytes: *sizeKB * 1024, LineBytes: 128, Ways: 16,
			Policy: kind, Cores: w.Threads(), Seed: 7777,
		},
		CPA:      cpaCfg,
		Params:   cpu.DefaultParams(),
		L1:       cpu.DefaultL1Config(128),
		MaxInsts: *insts,
	}
	sys, err := cmp.New(simCfg)
	if err != nil {
		fatal(err)
	}
	if *showParts && sys.CPA() != nil {
		sys.CPA().OnRepartition = func(cycle uint64, alloc cpapart.Allocation) {
			fmt.Printf("repartition @%d cycles: %v\n", cycle, alloc)
		}
	}

	// -opt: record the demand stream (and, when partitioned, every mask
	// change at its position in it) for the Belady replay after the run.
	var trace *optref.Trace
	if *optFlag {
		trace = &optref.Trace{}
		sets := simCfg.L2.SizeBytes / simCfg.L2.LineBytes / simCfg.L2.Ways
		sys.SetTracer(func(core int, addr uint64) {
			line := addr >> 7 // 128 B lines
			trace.Access(core, int(line%uint64(sets)), line)
		})
		if sys.CPA() != nil {
			prev := sys.CPA().OnRepartition
			sys.CPA().OnRepartition = func(cycle uint64, alloc cpapart.Allocation) {
				if prev != nil {
					prev(cycle, alloc)
				}
				trace.SetMasks(cpapart.Masks(alloc, simCfg.L2.Ways))
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := sys.RunContext(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cpasim: canceled")
		os.Exit(130)
	}

	fmt.Printf("workload %s, config %s, L2 %dKB %s\n",
		res.Workload, res.ConfigName, *sizeKB, kind)
	fmt.Printf("%-10s %10s %12s %8s %12s %12s\n",
		"benchmark", "IPC", "cycles", "L1miss%", "L2accesses", "L2miss%")
	for _, c := range res.PerCore {
		l1p := pct(c.Stats.L1Misses, c.Stats.L1Accesses)
		l2p := pct(c.Stats.L2Misses, c.Stats.L2Accesses)
		fmt.Printf("%-10s %10.3f %12.0f %7.1f%% %12d %11.1f%%\n",
			c.Benchmark, c.IPC, c.Cycles, l1p, c.Stats.L2Accesses, l2p)
	}
	fmt.Printf("\nthroughput (sum IPC): %.3f\n", res.Throughput())
	fmt.Printf("finish cycles: %.0f\n", res.FinishCycles)
	fmt.Printf("L2 totals: %d accesses, %d misses\n", res.L2Accesses, res.L2Misses)
	if sys.CPA() != nil {
		fmt.Printf("repartitions: %d, final allocation: %v\n",
			res.Repartitions, sys.CPA().Allocation())
	}
	if trace != nil {
		sets := simCfg.L2.SizeBytes / simCfg.L2.LineBytes / simCfg.L2.Ways
		opt, err := optref.Replay(optref.Config{Sets: sets, Ways: simCfg.L2.Ways, Cores: w.Threads()}, trace)
		if err != nil {
			fatal(err)
		}
		hitRate := res.DemandHitRate()
		fmt.Printf("\nBelady/OPT on the recorded trace (%d demand refs):\n", trace.Len())
		fmt.Printf("  demand hit rate: %.4f   OPT hit rate: %.4f\n", hitRate, opt.HitRate())
		if ohr := opt.HitRate(); ohr > 0 {
			fmt.Printf("  hit-rate-vs-OPT: %.4f", hitRate/ohr)
			if om := 1 - ohr; om > 0 {
				fmt.Printf("   competitive ratio (miss-based): %.4f", (1-hitRate)/om)
			}
			fmt.Println()
		}
	}
}

func resolveWorkload(name, benches string) (workload.Workload, error) {
	switch {
	case name != "" && benches != "":
		return workload.Workload{}, fmt.Errorf("use -workload or -benchmarks, not both")
	case name != "":
		return workload.Lookup(name)
	case benches != "":
		list := strings.Split(benches, ",")
		for i := range list {
			list[i] = strings.TrimSpace(list[i])
			if _, err := workload.Get(list[i]); err != nil {
				return workload.Workload{}, err
			}
		}
		return workload.Workload{Name: "custom", Benchmarks: list}, nil
	default:
		return workload.Workload{}, fmt.Errorf("specify -workload or -benchmarks")
	}
}

func pct(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den) * 100
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cpasim:", err)
	os.Exit(1)
}
