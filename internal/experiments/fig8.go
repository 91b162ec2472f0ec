package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/stats"
	"repro/internal/textplot"
	"repro/internal/workload"
	"repro/pkg/plru"
)

// Fig8Pair couples a partitioned configuration with its non-partitioned
// baseline of the same replacement policy, as in Figure 8's three panels.
type Fig8Pair struct {
	Acronym string    // partitioned config, e.g. "M-0.75N"
	Policy  plru.Kind // L2 policy for both runs
	Label   string    // panel label
}

// Fig8Pairs are the paper's three panels.
var Fig8Pairs = []Fig8Pair{
	{Acronym: "M-L", Policy: plru.LRU, Label: "(a) M-L vs non-partitioned LRU"},
	{Acronym: "M-0.75N", Policy: plru.NRU, Label: "(b) M-0.75N vs non-partitioned NRU"},
	{Acronym: "M-BT", Policy: plru.BT, Label: "(c) M-BT vs non-partitioned BT"},
}

// Fig8Data holds Figure 8: per-2T-workload throughput of the partitioned
// configuration relative to the non-partitioned cache of the same policy,
// for each L2 size.
type Fig8Data struct {
	Sizes     []int // KB
	Pairs     []Fig8Pair
	Workloads []string
	// Rel[pairIdx][workloadIdx][sizeIdx] = relative throughput.
	Rel [][][]float64
	// Avg[pairIdx][sizeIdx] = arithmetic mean over workloads (the paper's
	// AVG bar).
	Avg [][]float64
}

// Fig8 runs the Figure 8 experiment over the 24 two-thread workloads and
// the paper's three cache sizes.
func (h *Harness) Fig8(ctx context.Context) (*Fig8Data, error) {
	return h.Fig8With(ctx, []int{512, 1024, 2048}, Fig8Pairs)
}

// Fig8With runs Figure 8 with custom sizes and pairs.
func (h *Harness) Fig8With(ctx context.Context, sizesKB []int, pairs []Fig8Pair) (*Fig8Data, error) {
	ws, err := workload.ByThreads(2)
	if err != nil {
		return nil, err
	}
	ws = h.limitWorkloads(ws)
	data := &Fig8Data{Sizes: sizesKB, Pairs: pairs}
	for _, w := range ws {
		data.Workloads = append(data.Workloads, w.Name)
	}

	// Every (pair, workload, size) needs a partitioned run and its
	// non-partitioned baseline; prefetch them all through the pool.
	var specs []RunSpec
	for _, pair := range pairs {
		for _, w := range ws {
			for _, size := range sizesKB {
				specs = append(specs,
					RunSpec{W: w, Kind: pair.Policy, SizeKB: size},
					RunSpec{W: w, Kind: pair.Policy, Acronym: pair.Acronym, SizeKB: size})
			}
		}
	}
	if err := h.Prefetch(ctx, specs); err != nil {
		return nil, err
	}

	for pi, pair := range pairs {
		perW := make([][]float64, len(ws))
		avg := make([]float64, len(sizesKB))
		for wi, w := range ws {
			perW[wi] = make([]float64, len(sizesKB))
			for si, size := range sizesKB {
				baseRes, err := h.Run(ctx, w, pair.Policy, "", size)
				if err != nil {
					return nil, err
				}
				partRes, err := h.Run(ctx, w, pair.Policy, pair.Acronym, size)
				if err != nil {
					return nil, err
				}
				rel := partRes.Throughput() / baseRes.Throughput()
				perW[wi][si] = rel
			}
		}
		for si := range sizesKB {
			col := make([]float64, len(ws))
			for wi := range ws {
				col[wi] = perW[wi][si]
			}
			avg[si] = stats.Mean(col)
		}
		data.Rel = append(data.Rel, perW)
		data.Avg = append(data.Avg, avg)
		_ = pi
	}
	return data, nil
}

// Render formats Figure 8.
func (d *Fig8Data) Render() string {
	var sb strings.Builder
	sb.WriteString(textplot.Heading(
		"Figure 8: partitioned vs non-partitioned throughput, 2-core CMP"))
	for pi, pair := range d.Pairs {
		sb.WriteString("\n" + pair.Label + "\n")
		headers := []string{"Workload"}
		for _, s := range d.Sizes {
			headers = append(headers, fmt.Sprintf("%dKB", s))
		}
		var rows [][]string
		for wi, wn := range d.Workloads {
			row := []string{wn}
			for si := range d.Sizes {
				row = append(row, fmt.Sprintf("%.3f", d.Rel[pi][wi][si]))
			}
			rows = append(rows, row)
		}
		avgRow := []string{"AVG"}
		for si := range d.Sizes {
			avgRow = append(avgRow, fmt.Sprintf("%.3f", d.Avg[pi][si]))
		}
		rows = append(rows, avgRow)
		sb.WriteString(textplot.Table(headers, rows))
	}
	return sb.String()
}

// CSV emits rows: pair,workload,size_kb,rel_throughput (AVG rows use
// workload name "AVG").
func (d *Fig8Data) CSV() string {
	var sb strings.Builder
	sb.WriteString("pair,workload,size_kb,rel_throughput\n")
	for pi, pair := range d.Pairs {
		for wi, wn := range d.Workloads {
			for si, size := range d.Sizes {
				fmt.Fprintf(&sb, "%s,%s,%d,%.6f\n", pair.Acronym, wn, size, d.Rel[pi][wi][si])
			}
		}
		for si, size := range d.Sizes {
			fmt.Fprintf(&sb, "%s,AVG,%d,%.6f\n", pair.Acronym, size, d.Avg[pi][si])
		}
	}
	return sb.String()
}
