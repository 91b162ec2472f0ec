package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmarkFile() (*benchmarkFile, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &f, nil
}

// selfCheck runs the untraced suite in two sets of `runs` runs per
// workload, every run with another seed, and fails unless the sets'
// medians agree within each metric's bound. With four runs or more it
// also requires what the acceptance of the benchmark requires: every
// inter-quartile spread but setup_s's inside the bound. It prints the
// observed spreads beside the bounds, so that the bounds can be derived
// again on another host.
func selfCheck(ctx context.Context, seed int64, seconds float64, runs int) error {
	file, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	if runs < 1 {
		return fmt.Errorf("-runs %d: need at least 1", runs)
	}
	// sets[s][workload][metric] holds the values of set s.
	var sets [2]map[string]map[string][]float64
	for s := range sets {
		sets[s] = map[string]map[string][]float64{}
		for _, w := range workloads {
			sets[s][w.name] = map[string][]float64{}
			for i := range runs {
				r, err := child(ctx, w.name, seed+int64(s*runs+i), seconds, false)
				if err != nil {
					return err
				}
				if !r.Correct {
					return fmt.Errorf("%s: %w", w.name, errIncorrect)
				}
				for name, m := range r.Metrics {
					sets[s][w.name][name] = append(sets[s][w.name][name], m.Value)
				}
			}
		}
	}

	failures := 0
	fmt.Printf("\n%-16s %-14s %14s %14s %8s %8s %8s %6s\n", "workload", "metric", "median 1", "median 2", "drift", "spread 1", "spread 2", "bound")
	for _, w := range workloads {
		for _, m := range file.EndToEnd {
			a, b := sets[0][w.name][m.Name], sets[1][w.name][m.Name]
			drift := math.Abs(median(b)-median(a)) / math.Abs(median(a))
			spreadA, spreadB := iqrSpread(a), iqrSpread(b)
			verdict := ""
			if drift > m.Bound {
				verdict = "  DRIFT"
				failures++
			}
			if runs >= 4 && m.Name != "setup_s" && max(spreadA, spreadB) > m.Bound {
				verdict += "  SPREAD"
				failures++
			}
			fmt.Printf("%-16s %-14s %14.6g %14.6g %8.4f %8.4f %8.4f %6.3f%s\n",
				w.name, m.Name, median(a), median(b), drift, spreadA, spreadB, m.Bound, verdict)
		}
	}
	if failures > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) outside their bound", failures)
	}
	fmt.Println("selfcheck: both sets agree within every bound")
	return nil
}
