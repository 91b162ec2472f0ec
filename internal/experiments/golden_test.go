package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/pkg/plru"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/figs.sha256 and OPT_SCOREBOARD.csv from the current simulator")

// TestGoldenFigureCSVs pins the bytes of the Figure 6, 8 and 9 and
// OPT-scoreboard CSVs at a small budget, next to the Figure-7 digest the
// benchmark keeps in bench/testdata/fig7.sha256. Between them the four
// sweeps run every replacement policy, every CPA acronym of Figure 7,
// five L2 sizes, 1 to 8 cores and the demand-access tracer, so a change
// to the simulator that is meant to be exact — a faster scheduler, a
// cheaper index — either leaves every line alone or fails here, under
// plain `go test`. The digests were recorded on the per-event run loop
// that PR 15's lookahead scheduler replaced. The root OPT_SCOREBOARD.csv,
// whose geomeans README.md quotes, is compared byte for byte rather than
// by digest, so a drift names the row. After an intended change to
// simulated behaviour, re-record and say so:
//
//	go test ./internal/experiments -run TestGoldenFigureCSVs -update
func TestGoldenFigureCSVs(t *testing.T) {
	ctx := context.Background()
	h := New(Options{Insts: 60_000, Interval: 20_000, WorkloadLimit: 2})
	scoreboard := New(Options{Insts: 150_000, Interval: 50_000, SampleRate: 8, WorkloadLimit: 2})
	csvs := []struct {
		name string
		csv  func() (string, error)
		// file, when set, holds the CSV itself; otherwise the CSV's
		// digest is a line of testdata/figs.sha256.
		file string
	}{
		{"fig6.csv", func() (string, error) { return csvOf(h.Fig6(ctx, plru.Kinds())) }, ""},
		{"fig8.csv", func() (string, error) { return csvOf(h.Fig8(ctx)) }, ""},
		{"fig9.csv", func() (string, error) { return csvOf(h.Fig9(ctx)) }, ""},
		{"opt_scoreboard.csv", func() (string, error) {
			return csvOf(h.OptScoreboard(ctx, []int{1, 2, 4, 8}, []int{2048}, nil))
		}, ""},
		{"OPT_SCOREBOARD.csv", func() (string, error) {
			return csvOf(scoreboard.OptScoreboard(ctx, []int{1, 2}, []int{256}, nil))
		}, filepath.Join("..", "..", "OPT_SCOREBOARD.csv")},
	}
	var got bytes.Buffer
	for _, c := range csvs {
		csv, err := c.csv()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.file != "" {
			compareGolden(t, c.file, []byte(csv))
			continue
		}
		fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256([]byte(csv)), c.name)
	}
	compareGolden(t, filepath.Join("testdata", "figs.sha256"), got.Bytes())
}

// compareGolden requires got to equal the bytes of path, reporting each
// differing line, or rewrites path under -update.
func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden %s (run with -update to create): %v", path, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s: %d lines, golden has %d", path, len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("%s drifted: got %q, golden %q", path, gotLines[i], wantLines[i])
		}
	}
}

// csvOf renders a figure's data unless producing it failed.
func csvOf[D interface{ CSV() string }](d D, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return d.CSV(), nil
}
