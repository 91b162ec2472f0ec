package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/streams.sha256 from the current generator")

// streamDigest hashes the first n events of a generator, every field of
// every event, so any drift in the stream — a different gap, address,
// outcome or RNG consumption order — changes the digest.
func streamDigest(g *trace.Generator, n int) string {
	h := sha256.New()
	var buf [14]byte
	for i := 0; i < n; i++ {
		e := g.Next()
		binary.LittleEndian.PutUint32(buf[0:], e.Insts)
		buf[4] = byte(e.Kind)
		binary.LittleEndian.PutUint64(buf[5:], e.Addr)
		buf[13] = 0
		if e.Taken {
			buf[13] |= 1
		}
		if e.Write {
			buf[13] |= 2
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGoldenStreams pins the event stream of every catalog benchmark at
// two thread ids. The digests were recorded from the math.Log-per-draw
// generator that predates the table sampler, so the test proves the
// sampler left every stream untouched — and localises a drift to this
// layer instead of a Figure-7 CSV mismatch three layers up. After an
// intended change to the generator, re-record with -update and say so.
func TestGoldenStreams(t *testing.T) {
	const events = 200_000
	var got bytes.Buffer
	for _, name := range workload.Names() {
		for _, thread := range []int{0, 5} {
			g := trace.NewGenerator(workload.MustGet(name), thread, workload.Seed(name), 128)
			fmt.Fprintf(&got, "%s %d %s\n", name, thread, streamDigest(g, events))
		}
	}
	path := filepath.Join("testdata", "streams.sha256")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d digest lines, golden has %d (catalog changed?)", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("stream drifted: got %q, golden %q", gotLines[i], wantLines[i])
		}
	}
}
