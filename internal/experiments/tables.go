package experiments

import (
	"fmt"
	"strings"

	"repro/internal/complexity"
	"repro/internal/textplot"
	"repro/internal/workload"
)

// Table1 renders the paper's Table I (complexity of the LRU, NRU and BT
// replacement schemes) for the paper's example geometry.
func Table1() string {
	g := complexity.PaperGeometry()
	var sb strings.Builder
	sb.WriteString(textplot.Heading(
		"Table I: complexity of LRU, NRU and BT (16-way 2MB L2, 128B lines, 2 cores, 47 tag bits)"))
	headers := []string{"Quantity", "LRU", "NRU", "BT"}
	var rows [][]string
	for _, r := range complexity.Report(g) {
		rows = append(rows, append([]string{r.Label}, r.Values[:]...))
	}
	sb.WriteString(textplot.Table(headers, rows))
	sb.WriteString("\nPaper reference points: LRU 8 KB, NRU 2 KB (+pointer), BT 1.875 KB;\n" +
		"tag compare 752 bits; LRU worst-case update 64 bits; NRU 15+4; BT 4.\n")
	return sb.String()
}

// Table2 renders the paper's Table II: the processor setup and all 49
// multiprogrammed workloads.
func Table2() string {
	var sb strings.Builder
	sb.WriteString(textplot.Heading("Table II: baseline processor configuration"))
	sb.WriteString(`CORE:      8-wide out-of-order (modeled by per-benchmark BaseIPC), 98-entry window
Branch:    tournament (best of bimodal & gshare), BTB 1KB 4-way, min penalty 3 cycles
L1 D:      32KB, 2-way, 128B lines, LRU, 11-cycle miss penalty
L1 I:      64KB, 2-way (folded into BaseIPC)
L2:        unified shared, 2MB, 16-way, 128B lines, 250-cycle miss penalty
CPA:       MinMisses, 1M-cycle interval (scaled by harness options)
`)
	sb.WriteString(textplot.Heading("Table II: workloads"))
	for _, n := range []int{2, 4, 8} {
		ws, err := workload.ByThreads(n)
		if err != nil {
			continue
		}
		for _, w := range ws {
			fmt.Fprintf(&sb, "%-6s %s\n", w.Name, strings.Join(w.Benchmarks, ", "))
		}
	}
	return sb.String()
}
