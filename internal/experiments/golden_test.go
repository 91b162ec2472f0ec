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

var updateGolden = flag.Bool("update", false, "rewrite testdata/figs.sha256 from the current simulator")

// TestGoldenFigureCSVs pins the bytes of the Figure 6, 8 and 9 and
// OPT-scoreboard CSVs at a small budget, next to the Figure-7 digest the
// benchmark keeps in bench/testdata/fig7.sha256. Between them the four
// sweeps run every replacement policy, every CPA acronym of Figure 7,
// five L2 sizes, 1 to 8 cores and the demand-access tracer, so a change
// to the simulator that is meant to be exact — a faster scheduler, a
// cheaper index — either leaves every line alone or fails here, under
// plain `go test`. The digests were recorded on the per-event run loop
// that PR 15's lookahead scheduler replaced. After an intended change to
// simulated behaviour, re-record and say so:
//
//	go test ./internal/experiments -run TestGoldenFigureCSVs -update
func TestGoldenFigureCSVs(t *testing.T) {
	ctx := context.Background()
	h := New(Options{Insts: 60_000, Interval: 20_000, WorkloadLimit: 2})
	csvs := []struct {
		name string
		csv  func() (string, error)
	}{
		{"fig6.csv", func() (string, error) { return csvOf(h.Fig6(ctx, plru.Kinds())) }},
		{"fig8.csv", func() (string, error) { return csvOf(h.Fig8(ctx)) }},
		{"fig9.csv", func() (string, error) { return csvOf(h.Fig9(ctx)) }},
		{"opt_scoreboard.csv", func() (string, error) {
			return csvOf(h.OptScoreboard(ctx, []int{1, 2, 4, 8}, []int{2048}, nil))
		}},
	}
	var got bytes.Buffer
	for _, c := range csvs {
		csv, err := c.csv()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256([]byte(csv)), c.name)
	}
	path := filepath.Join("testdata", "figs.sha256")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden digests (run with -update to create): %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d digest lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("CSV drifted: got %q, golden %q", gotLines[i], wantLines[i])
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
