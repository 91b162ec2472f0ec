package cpu_test

import (
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/workload"
)

// TestGroupedSweepReadersNeverRecord runs the Figure 7 sweep the
// benchmark times (the options of bench/repro.go) and checks who filled
// every tape: on each tape a group shares, a recorder filled every chunk
// and no reader a single one; on each isolation run's tape, its lone
// reader filled them all.
func TestGroupedSweepReadersNeverRecord(t *testing.T) {
	var (
		mu    sync.Mutex
		tapes []*cpu.Tape
	)
	cpu.OnNewTape(func(tp *cpu.Tape) {
		mu.Lock()
		defer mu.Unlock()
		tapes = append(tapes, tp)
	})
	defer cpu.OnNewTape(nil)
	opt := experiments.Options{
		Insts:         120_000,
		Interval:      40_000,
		SampleRate:    16,
		L2SizeKB:      1024,
		WorkloadLimit: 3,
	}
	if _, err := experiments.New(opt).Fig7(context.Background()); err != nil {
		t.Fatal(err)
	}

	// One tape per core of every workload, and one per distinct benchmark
	// for its isolation baseline.
	var cores int
	var benches []string
	for _, n := range []int{2, 4, 8} {
		ws, err := workload.ByThreads(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range ws[:min(len(ws), opt.WorkloadLimit)] {
			cores += w.Threads()
			for _, b := range w.Benchmarks {
				if !slices.Contains(benches, b) {
					benches = append(benches, b)
				}
			}
		}
	}
	var shared, lone int
	for _, tp := range tapes {
		switch all, byReaders := tp.Chunks(); {
		case all == 0: // built with a system whose cores then joined a group's tapes
		case byReaders == 0:
			shared++
		case byReaders == all:
			lone++
		default:
			t.Errorf("readers filled %d of a tape's %d chunks", byReaders, all)
		}
	}
	if shared != cores || lone != len(benches) {
		t.Errorf("%d tapes filled by a recorder and %d by their lone reader, want %d and %d",
			shared, lone, cores, len(benches))
	}
}
