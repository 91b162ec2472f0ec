package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/workload"
)

// fig7Digest pins the bytes of Fig7Data.CSV() at fig7Options: a change
// that speeds the simulator up must leave every simulated statistic as it
// was.
//
//go:embed testdata/fig7.sha256
var fig7Digest string

// fig7Options is the CI-sized Figure 7 sweep BENCH_parallel.json records.
func fig7Options(parallelism int) experiments.Options {
	return experiments.Options{
		Insts:         120_000,
		Interval:      40_000,
		SampleRate:    16,
		L2SizeKB:      1024,
		WorkloadLimit: 3,
		Parallelism:   parallelism,
	}
}

// fig7Plan lists what one Figure 7 sweep simulates, so that the benchmark
// can count the work and read the simulated statistics back out of the
// harness's memo.
type fig7Plan struct {
	mixes   []workload.Workload // every workload, each run under every Fig7Configs entry
	benches []string            // distinct benchmarks, each run alone as the isolation baseline
	sims    int                 // unique simulations
	insts   uint64              // simulated instructions: sum of threads x Insts over them
}

func planFig7(opt experiments.Options) (fig7Plan, error) {
	var p fig7Plan
	for _, cores := range []int{2, 4, 8} {
		ws, err := workload.ByThreads(cores)
		if err != nil {
			return p, err
		}
		for _, w := range ws[:min(len(ws), opt.WorkloadLimit)] {
			p.mixes = append(p.mixes, w)
			p.sims += len(experiments.Fig7Configs)
			p.insts += uint64(len(experiments.Fig7Configs)*w.Threads()) * opt.Insts
			for _, b := range w.Benchmarks {
				if !slices.Contains(p.benches, b) {
					p.benches = append(p.benches, b)
					p.sims++
					p.insts += opt.Insts
				}
			}
		}
	}
	return p, nil
}

// fig7Sweep runs one Figure 7 on a fresh harness and returns the CSV, the
// wall time and the harness (whose memo now holds every run).
func fig7Sweep(ctx context.Context, parallelism int, plan fig7Plan) (string, time.Duration, *experiments.Harness, error) {
	h := experiments.New(fig7Options(parallelism))
	start := time.Now()
	data, err := h.Fig7(ctx)
	wall := time.Since(start)
	if err != nil {
		return "", wall, h, err
	}
	if got := int(h.Simulated()); got != plan.sims {
		return "", wall, h, fmt.Errorf("fig7 ran %d simulations, the plan counts %d", got, plan.sims)
	}
	return data.CSV(), wall, h, nil
}

func pinnedDigest() string { return strings.TrimSpace(fig7Digest) }

func csvDigest(csv string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(csv))) }

// l2HitShare is the shared L2's hit share summed over every multiprogrammed
// run of the sweep: a simulated statistic, identical on every run.
func l2HitShare(ctx context.Context, h *experiments.Harness, plan fig7Plan) (float64, error) {
	var accesses, misses uint64
	for _, w := range plan.mixes {
		for _, acr := range experiments.Fig7Configs {
			cfg, err := core.ParseAcronym(acr)
			if err != nil {
				return 0, err
			}
			res, err := h.Run(ctx, w, cfg.Policy, acr, h.Options().L2SizeKB)
			if err != nil {
				return 0, err
			}
			accesses += res.L2Accesses
			misses += res.L2Misses
		}
	}
	return 1 - float64(misses)/float64(accesses), nil
}

// runRepro measures repro_fig7 end to end: whole sweeps on fresh
// harnesses until the window is used up, at least two so that run-to-run
// identity is checked. The seed does not enter: the simulator's inputs
// are the paper's workloads.
func runRepro(ctx context.Context, d time.Duration) (*outcome, error) {
	plan, err := planFig7(fig7Options(0))
	if err != nil {
		return nil, err
	}
	o := &outcome{vals: values{}, correct: true}

	// Set-up is the memo warm-up every figure needs: a harness plus the
	// isolation baseline of every benchmark.
	var setupTimes []float64
	for range setups {
		start := time.Now()
		h := experiments.New(fig7Options(0))
		for _, b := range plan.benches {
			if _, err := h.IsolationIPC(ctx, b, h.Options().L2SizeKB); err != nil {
				return nil, err
			}
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}

	want := pinnedDigest()
	var sweeps []float64
	var hits float64
	cpu0, err := procCPU(0)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for len(sweeps) < 2 || time.Since(start) < d {
		csv, wall, h, err := fig7Sweep(ctx, 0, plan)
		if err != nil {
			return nil, err
		}
		sweeps = append(sweeps, float64(wall.Microseconds()))
		o.attempted += int(plan.insts)
		if got := csvDigest(csv); got != want {
			o.failed += int(plan.insts) // a wrong figure fails every instruction behind it
			o.notef("Fig7 CSV digest %s, pinned %s", got, want)
		}
		if hits == 0 {
			if hits, err = l2HitShare(ctx, h, plan); err != nil {
				return nil, err
			}
		}
	}
	wall := time.Since(start)
	cpu1, err := procCPU(0)
	if err != nil {
		return nil, err
	}
	rss, err := procPeakRSSMB(0)
	if err != nil {
		return nil, err
	}

	work := float64(len(sweeps)) * float64(plan.insts)
	slices.Sort(sweeps)
	o.vals["ops_per_s"] = work / wall.Seconds()
	o.latencyValues(sweeps, "one whole Fig-7 sweep")
	o.vals["hit_rate"] = hits
	o.vals["cpu_us_per_op"] = float64(cpu1.sub(cpu0).total().Microseconds()) / work
	o.vals["peak_rss_mb"] = rss
	o.vals["setup_s"] = median(setupTimes)
	o.okShare()
	o.notef("sweep wall times, ascending (us): %.0f", sweeps)
	o.notef("window %.3fs, %d sweeps of %d simulations, %d simulated instructions each",
		wall.Seconds(), len(sweeps), plan.sims, plan.insts)
	return o, nil
}
