package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/workload"
	"repro/pkg/plru"
)

// optOptions keeps OPT scoreboard tests cheap: one workload per core
// count, short runs.
func optOptions(parallelism int) Options {
	return Options{
		Insts:         30_000,
		Interval:      15_000,
		SampleRate:    8,
		L2SizeKB:      512,
		WorkloadLimit: 1,
		Parallelism:   parallelism,
	}
}

// TestOptScoreboardShape runs the scoreboard over 1- and 2-core cells
// with every policy kind and checks the cell grid, the hit-rate bounds,
// and that OPT upper-bounds the single-core cells (where the traced
// stream is exactly what every policy saw).
func TestOptScoreboardShape(t *testing.T) {
	ctx := context.Background()
	h := New(optOptions(4))
	d, err := h.OptScoreboard(ctx, []int{1, 2}, []int{512}, nil)
	if err != nil {
		t.Fatal(err)
	}
	kinds := plru.Kinds()
	wantCells := 2 * len(kinds) // 1 workload per core count × policies
	if len(d.Cells) != wantCells {
		t.Fatalf("cells = %d, want %d", len(d.Cells), wantCells)
	}
	for _, c := range d.Cells {
		if c.OptHitRate <= 0 || c.OptHitRate > 1 {
			t.Errorf("%+v: OPT hit rate out of range", c)
		}
		if c.HitRate < 0 || c.HitRate > 1 {
			t.Errorf("%+v: hit rate out of range", c)
		}
		if c.Cores == 1 {
			// Single-core demand streams are policy-independent, so OPT
			// must dominate exactly.
			if c.HitRate > c.OptHitRate+1e-12 {
				t.Errorf("%s on %s: hit rate %.6f exceeds OPT %.6f", c.Policy, c.Workload, c.HitRate, c.OptHitRate)
			}
			if c.CompetitiveRatio < 1-1e-9 {
				t.Errorf("%s on %s: competitive ratio %.6f < 1", c.Policy, c.Workload, c.CompetitiveRatio)
			}
		}
	}
	// Render and CSV must mention every policy.
	render, csv := d.Render(), d.CSV()
	for _, k := range kinds {
		if !strings.Contains(render, k.String()) {
			t.Errorf("Render missing policy %s", k)
		}
		if !strings.Contains(csv, ","+k.String()+",") {
			t.Errorf("CSV missing policy %s", k)
		}
	}
	if !strings.HasPrefix(csv, "cores,workload,size_kb,policy,hit_rate,opt_hit_rate,hit_rate_vs_opt,competitive_ratio\n") {
		t.Errorf("CSV header changed:\n%s", csv)
	}
}

// TestOptScoreboardParallelDeterminism asserts the scoreboard CSV is
// byte-identical at Parallelism 1 and 8 — the same guarantee the
// figures give.
func TestOptScoreboardParallelDeterminism(t *testing.T) {
	ctx := context.Background()
	render := func(parallelism int) string {
		h := New(optOptions(parallelism))
		d, err := h.OptScoreboard(ctx, []int{1, 2}, []int{512}, []plru.Kind{plru.LRU, plru.BT})
		if err != nil {
			t.Fatal(err)
		}
		return d.CSV()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("scoreboard CSV differs between Parallelism 1 and 8:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

// TestRunOPTMemoized checks one OPT replay is shared across a
// scoreboard's policies and repeated calls.
func TestRunOPTMemoized(t *testing.T) {
	ctx := context.Background()
	h := New(optOptions(2))
	w := workload.SingleThread()[0]
	a, err := h.RunOPT(ctx, w, 512)
	if err != nil {
		t.Fatal(err)
	}
	before := h.Simulated()
	b, err := h.RunOPT(ctx, w, 512)
	if err != nil {
		t.Fatal(err)
	}
	if h.Simulated() != before {
		t.Errorf("second RunOPT re-simulated (simulated %d -> %d)", before, h.Simulated())
	}
	if a.Hits() != b.Hits() || a.Accesses() != b.Accesses() {
		t.Errorf("memoized OPT stats differ: %+v vs %+v", a, b)
	}
}
