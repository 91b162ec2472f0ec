package plru

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current implementation")

// goldenTrace drives a policy through a fixed pseudo-random schedule of
// Touch, Victim (with varying masks), SetPartition and introspection calls
// and records every observable output. The schedule depends only on the
// deterministic splitmix64 stream, so the trace pins the exact step-for-step
// behavior of the implementation.
//
// The checked-in testdata/golden.json was generated against the original
// paper-reproduction implementation (before the engine became pkg/plru), so
// this test pins the four paper policies to that behavior step for step.
// Regenerate only for an intended behavior change:
//
//	go test ./pkg/plru -run TestGoldenSequences -update
func goldenTrace(kind Kind) []int {
	const (
		sets  = 4
		ways  = 8
		cores = 2
		steps = 600
	)
	p := New(kind, sets, ways, cores, 99)
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng += 0x9E3779B97F4A7C15
		z := rng
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}

	var trace []int
	for i := 0; i < steps; i++ {
		r := next()
		set := int(r % sets)
		core := int((r >> 8) % cores)
		way := int((r >> 16) % ways)
		switch r % 5 {
		case 0, 1: // plain access
			p.Touch(set, way, core)
		case 2, 3: // miss: pick a victim under a random non-empty mask, fill it
			mask := WayMask(next()) & Full(ways)
			if mask == 0 {
				mask = Full(ways)
			}
			v := p.Victim(set, core, mask)
			trace = append(trace, v)
			p.Touch(set, v, core)
		default: // introspection probes
			switch q := p.(type) {
			case *LRUPolicy:
				trace = append(trace, q.Dist(set, way))
			case *NRUPolicy:
				trace = append(trace, q.UsedCount(set), q.Pointer())
			case *BTPolicy:
				trace = append(trace, q.PathBits(set, way), q.EstStackPos(set, way))
			}
		}
		// Halfway through, install a two-tenant partition (and keep issuing
		// the same schedule) to pin the partitioned code paths too.
		if i == steps/2 {
			p.SetPartition([]WayMask{Full(ways / 2), Full(ways) &^ Full(ways/2)})
		}
	}

	// BT only: pin VictimForced under every aligned force-vector pair.
	if bt, ok := p.(*BTPolicy); ok {
		lv := bt.Levels()
		for d := 0; d < lv; d++ {
			up := make([]bool, lv)
			down := make([]bool, lv)
			up[d] = true
			trace = append(trace, bt.VictimForced(0, up, make([]bool, lv)))
			down[d] = true
			trace = append(trace, bt.VictimForced(0, make([]bool, lv), down))
		}
	}
	return trace
}

func TestGoldenSequences(t *testing.T) {
	got := map[string][]int{}
	for _, k := range []Kind{LRU, NRU, BT, Random} {
		got[k.String()] = goldenTrace(k)
	}

	path := filepath.Join("testdata", "golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	var want map[string][]int
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing golden file: %v", err)
	}
	for kind, w := range want {
		g := got[kind]
		if !reflect.DeepEqual(g, w) {
			i := 0
			for i < len(g) && i < len(w) && g[i] == w[i] {
				i++
			}
			t.Errorf("%s: trace diverges from pre-refactor golden at step %d (got len %d, want len %d)",
				kind, i, len(g), len(w))
		}
	}
}
