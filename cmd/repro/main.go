// Command repro regenerates the paper's tables and figures.
//
// Usage:
//
//	repro [-experiment all|table1|table2|fig6|fig7|fig8|fig9|opt]
//	      [-insts N] [-interval N] [-sample N] [-limit N]
//	      [-parallel N] [-csvdir DIR] [-v]
//	      [-opt] [-opt-cores LIST] [-opt-sizes LIST]
//
// The default instruction budget (1M per thread) is a scaled-down stand-in
// for the paper's 100M SimPoint slices; raise -insts for tighter numbers.
// Simulations run -parallel at a time (default: GOMAXPROCS); the output
// is bit-identical at any setting. The shared tapes of a workload's
// simulations record on goroutines of their own beside them, so even
// -parallel 1 can keep two CPUs busy. Ctrl-C cancels the sweep. With
// -csvdir, each figure also writes a machine-readable CSV.
//
// -opt (or -experiment opt) emits the Belady/OPT competitive-analysis
// scoreboard: every policy's demand hit rate vs the offline-optimal on
// the fig6-9 workloads, across -opt-cores core counts and -opt-sizes L2
// sizes (opt_scoreboard.csv with -csvdir).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/workload"
	"repro/pkg/plru"
)

// experimentNames lists what -experiment accepts.
const experimentNames = "all, table1, table2, fig6, fig7, fig8, fig9, opt"

func main() {
	var (
		experiment = flag.String("experiment", "all", "which experiment to run: "+experimentNames)
		insts      = flag.Uint64("insts", 1_000_000, "instructions per thread")
		interval   = flag.Uint64("interval", 250_000, "repartition interval in cycles")
		sample     = flag.Int("sample", 32, "ATD set-sampling rate (1 in N sets)")
		limit      = flag.Int("limit", 0, "max workloads per thread count (0 = all)")
		parallel   = flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS); shared tapes record beside them, so 1 can use two CPUs")
		csvdir     = flag.String("csvdir", "", "directory for CSV output (optional)")
		verbose    = flag.Bool("v", false, "print per-run progress")
		optFlag    = flag.Bool("opt", false, "also run the Belady/OPT competitive-analysis scoreboard")
		optCores   = flag.String("opt-cores", "1,2,4,8", "comma-separated core counts for the OPT scoreboard")
		optSizes   = flag.String("opt-sizes", "2048", "comma-separated L2 sizes (KB) for the OPT scoreboard")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := workload.Validate(); err != nil {
		fatal(err)
	}
	// counting tracks whether the live job counter has written a partial
	// line that needs terminating before other stderr output.
	counting := false
	endCounter := func() {
		if counting {
			fmt.Fprintln(os.Stderr)
			counting = false
		}
	}
	opt := experiments.Options{
		Insts:         *insts,
		Interval:      *interval,
		SampleRate:    *sample,
		L2SizeKB:      2048,
		WorkloadLimit: *limit,
		Parallelism:   *parallel,
	}
	if *verbose {
		opt.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	} else {
		// Live completed/total aggregation on one self-overwriting line.
		opt.OnJob = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rjobs %d/%d", done, total)
			counting = true
		}
	}
	h := experiments.New(opt)

	writeCSV := func(name, content string) {
		if *csvdir == "" {
			return
		}
		if err := os.MkdirAll(*csvdir, 0o755); err != nil {
			fatal(err)
		}
		path := filepath.Join(*csvdir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}

	run := func(name string) {
		start := time.Now()
		simsBefore, instsBefore := h.Simulated(), h.SimulatedInsts()
		switch name {
		case "table1":
			fmt.Print(experiments.Table1())
		case "table2":
			fmt.Print(experiments.Table2())
		case "fig6":
			d, err := h.Fig6(ctx, []plru.Kind{
				plru.LRU, plru.NRU, plru.BT, plru.Random,
				plru.AWRP, plru.ARC})
			endCounter()
			if err != nil {
				fatal(err)
			}
			fmt.Print(d.Render())
			writeCSV("fig6.csv", d.CSV())
		case "fig7":
			d, err := h.Fig7(ctx)
			endCounter()
			if err != nil {
				fatal(err)
			}
			fmt.Print(d.Render())
			writeCSV("fig7.csv", d.CSV())
		case "fig8":
			d, err := h.Fig8(ctx)
			endCounter()
			if err != nil {
				fatal(err)
			}
			fmt.Print(d.Render())
			writeCSV("fig8.csv", d.CSV())
		case "fig9":
			d, err := h.Fig9(ctx)
			endCounter()
			if err != nil {
				fatal(err)
			}
			fmt.Print(d.Render())
			writeCSV("fig9.csv", d.CSV())
		case "opt":
			cores, err := parseIntList(*optCores)
			if err != nil {
				fatal(fmt.Errorf("-opt-cores: %w", err))
			}
			sizes, err := parseIntList(*optSizes)
			if err != nil {
				fatal(fmt.Errorf("-opt-sizes: %w", err))
			}
			d, err := h.OptScoreboard(ctx, cores, sizes, nil)
			endCounter()
			if err != nil {
				fatal(err)
			}
			fmt.Print(d.Render())
			writeCSV("opt_scoreboard.csv", d.CSV())
		default:
			fatal(fmt.Errorf("unknown experiment %q (want one of: %s)", name, experimentNames))
		}
		elapsed := time.Since(start)
		speed := ""
		if minst := float64(h.SimulatedInsts()-instsBefore) / 1e6; minst > 0 {
			speed = fmt.Sprintf(" %.1f Minst, %.1f Minst/s,", minst, minst/elapsed.Seconds())
		}
		if tapes := h.TakeTapes(); tapes.Produced > 0 {
			speed += fmt.Sprintf(" %.1f M events recorded, %.1f M replayed, %d KB peak tape,",
				float64(tapes.Produced)/1e6, float64(tapes.Replayed)/1e6, tapes.PeakBytes>>10)
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v, %d simulations run,%s %d workers]\n",
			name, elapsed.Round(time.Millisecond), h.Simulated()-simsBefore, speed, h.Parallelism())
	}

	if *experiment == "all" {
		for _, name := range []string{"table1", "table2", "fig6", "fig7", "fig9", "fig8"} {
			run(name)
		}
		if *optFlag {
			run("opt")
		}
		return
	}
	run(*experiment)
	if *optFlag && *experiment != "opt" {
		run("opt")
	}
}

// parseIntList parses a comma-separated list of positive integers.
func parseIntList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad entry %q", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, errors.New("empty list")
	}
	return out, nil
}

func fatal(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "repro: canceled")
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, "repro:", err)
	os.Exit(1)
}
