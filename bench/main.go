// Command bench is the repository's benchmark: four workloads measured end
// to end with tracing off, and a traced pass that times each layer from
// outside. BENCHMARK.json at the repository root registers it; README.md
// beside this file explains every metric and workload.
//
//	go run ./bench                              every workload, then the traced pass of the wire ones
//	go run ./bench -workload lib_mixed          one workload, end to end
//	go run ./bench -workload wire_hot_get -trace 1   the traced pass on that workload's stream
//	go run ./bench -selfcheck [-runs 10]        two sets of runs must agree within the bounds
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	traceOut  string
	selfcheck bool
	runs      int
}

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "run one workload (wire_hot_get, wire_tenant_mix, lib_mixed, repro_fig7); empty runs all")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed: the same seed gives the same request streams")
	flag.Float64Var(&opt.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&opt.trace, "trace", 0, "1 runs the traced pass and reports the per-layer metrics instead")
	flag.StringVar(&opt.traceOut, "trace-out", "", "trace file of the traced pass (default "+buildDir+"/trace_<workload>.json)")
	flag.BoolVar(&opt.selfcheck, "selfcheck", false, "run the untraced suite twice and require agreement within BENCHMARK.json's bounds")
	flag.IntVar(&opt.runs, "runs", 1, "with -selfcheck: runs per workload in each set, each with another seed")
	flag.Parse()
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()

	if err := run(ctx, opt); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("a correctness check failed")

func run(ctx context.Context, opt options) error {
	// A closed loop of two clients against a two-connection daemon needs
	// two cores; a one-core recording measures the scheduler.
	if runtime.GOMAXPROCS(0) < 2 {
		return errors.New("GOMAXPROCS is 1; the benchmark needs at least 2")
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	switch {
	case opt.selfcheck:
		return selfCheck(ctx, opt.seed, opt.seconds, opt.runs)
	case opt.workload == "":
		return suite(ctx, opt.seed, opt.seconds)
	}
	w, err := workloadByName(opt.workload)
	if err != nil {
		return err
	}
	d := time.Duration(opt.seconds * float64(time.Second))
	traced := opt.trace == 1
	defs := endToEnd
	var o *outcome
	switch {
	case traced:
		defs = perLayer
		if opt.traceOut == "" {
			opt.traceOut = filepath.Join(buildDir, "trace_"+w.name+".json")
		}
		o, err = runTraced(ctx, w, opt.seed, d, opt.traceOut)
	case w.isWire():
		o, err = runWire(ctx, w, opt.seed, d)
	case w == &libMixed:
		o, err = runLib(ctx, w, opt.seed, d)
	default:
		o, err = runRepro(ctx, d)
	}
	if err != nil {
		return err
	}
	o.notes = append([]string{fmt.Sprintf("== %s, seed %d, %gs, trace %t ==", w.name, opt.seed, opt.seconds, traced), hostFacts()}, o.notes...)
	r, err := report(defs, o)
	if err != nil {
		return err
	}
	if err := r.print(os.Stdout, defs); err != nil {
		return err
	}
	if !r.Correct {
		return errIncorrect
	}
	return nil
}

// hostFacts is the line that says what the numbers were measured on. The
// daemon inherits the benchmark's environment, so its GOMAXPROCS is the
// benchmark's.
func hostFacts() string {
	return fmt.Sprintf("host: %d CPUs, GOMAXPROCS %d (benchmark and daemon), %s %s/%s, %s, daemon on loopback 127.0.0.1",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
}

// child runs one workload in a process of its own, so that RSS, CPU and
// GC state do not leak between workloads, echoes its output and parses
// the result off its last line.
func child(ctx context.Context, name string, seed int64, seconds float64, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", trace)
	cmd.Stderr = os.Stderr
	// On cancellation let the child stop its own daemon; its daemon dies
	// with it in any case (Pdeathsig).
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 20 * time.Second
	out, runErr := cmd.Output()
	os.Stdout.Write(out)
	lines := bytes.Split(bytes.TrimSpace(out), []byte{'\n'})
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("%s: no result (%v)", name, errors.Join(runErr, err))
	}
	return &r, nil
}

// suite is the single command: every workload end to end, then the traced
// pass on each wire workload's stream. Its last line maps each run to its
// result.
func suite(ctx context.Context, seed int64, seconds float64) error {
	all := map[string]*result{}
	correct := true
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			if traced && !w.isWire() {
				continue // the traced pass of a non-wire workload is wire_hot_get's
			}
			r, err := child(ctx, w.name, seed, seconds, traced)
			if err != nil {
				return err
			}
			key := w.name
			if traced {
				key += ".traced"
			}
			all[key] = r
			correct = correct && r.Correct
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !correct {
		return errIncorrect
	}
	return nil
}
