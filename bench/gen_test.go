package main

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/resp"
)

// streamBytes renders the first n requests of a stream, answering every
// GET from a fixed rule so that the cache-aside feedback is exercised
// without a cache.
func streamBytes(spec streamSpec, seed int64, n int) []byte {
	g := newGen(spec, seed)
	table := valueTable(spec.valueSize)
	var out []byte
	for range n {
		o := g.next()
		if o.kind == opGet && o.key%3 == 0 {
			g.miss(o.key)
		}
		out = appendRequest(out, spec.prefix, o, table)
	}
	return out
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		for i, spec := range w.streams {
			a := streamBytes(spec, clientSeed(7, i), 5000)
			if b := streamBytes(spec, clientSeed(7, i), 5000); !bytes.Equal(a, b) {
				t.Errorf("%s stream %d: same seed, different bytes", w.name, i)
			}
			if b := streamBytes(spec, clientSeed(8, i), 5000); bytes.Equal(a, b) {
				t.Errorf("%s stream %d: different seed, same bytes", w.name, i)
			}
		}
	}
}

func TestClientsOfOneRunDiffer(t *testing.T) {
	spec := wireHotGet.streams[0]
	if bytes.Equal(streamBytes(spec, clientSeed(1, 0), 1000), streamBytes(spec, clientSeed(1, 1), 1000)) {
		t.Error("the two connections of wire_hot_get send the same stream")
	}
}

func TestRequestsParseAsTheServerReadsThem(t *testing.T) {
	spec := wireTenantMix.streams[1] // 1 KB values with PX
	table := valueTable(spec.valueSize)
	ops := []op{{kind: opGet, key: 42}, {kind: opSet, key: 1999999}, {kind: opSet, key: 7, ttlMs: 2000}}
	var frames []byte
	for _, o := range ops {
		frames = appendRequest(frames, spec.prefix, o, table)
	}
	r := resp.NewReader(bytes.NewReader(frames))
	want := [][]string{
		{"GET", "b:0000000042"},
		{"SET", "b:0001999999", string(valueOf(table, 1999999))},
		{"SET", "b:0000000007", string(valueOf(table, 7)), "PX", "2000"},
	}
	for i, w := range want {
		args, err := r.ReadCommand()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(args) != len(w) {
			t.Fatalf("frame %d: %d args, want %d", i, len(args), len(w))
		}
		for j := range w {
			if string(args[j]) != w[j] {
				t.Errorf("frame %d arg %d: %q, want %q", i, j, args[j], w[j])
			}
		}
	}
	if got := keyString(spec.prefix, 42); got != "b:0000000042" {
		t.Errorf("keyString = %q", got)
	}
}

func TestMissIsRepairedAtTheHeadOfTheNextBatch(t *testing.T) {
	g := newGen(wireTenantMix.streams[0], 1)
	first := g.next()
	for first.kind != opGet {
		first = g.next()
	}
	g.miss(first.key)
	if o := g.next(); o.kind != opSet || o.key != first.key {
		t.Errorf("after a miss of key %d the next request is %+v, want a SET of it", first.key, o)
	}
	g = newGen(wireHotGet.streams[0], 1) // not cache-aside
	g.miss(5)
	if len(g.pending) != 0 {
		t.Error("a stream that is not cache-aside queued a SET")
	}
}

func TestTTLEveryNthSet(t *testing.T) {
	g := newGen(libMixed.streams[0], 1)
	withTTL := 0
	for range 64 {
		if g.set(1).ttlMs > 0 {
			withTTL++
		}
	}
	if withTTL != 8 {
		t.Errorf("%d of 64 SETs carry a TTL, want one in 8", withTTL)
	}
}

func TestValuesDependOnKeyAndSize(t *testing.T) {
	a, b := valueTable(64), valueTable(256)
	if len(a) != valueVariants || len(a[3]) != 64 || len(b[3]) != 256 {
		t.Fatal("value table has the wrong shape")
	}
	if bytes.Equal(a[1], a[2]) || bytes.Equal(a[1], b[1][:64]) {
		t.Error("values of different keys or sizes coincide")
	}
	if !bytes.Equal(valueOf(a, 5), valueOf(a, 5+valueVariants)) {
		t.Error("valueOf is not periodic in valueVariants")
	}
}

func TestDaemonArgsCarryTheWholeConfig(t *testing.T) {
	got := fmt.Sprint(wireTenantMix.daemonArgs())
	want := "[-addr 127.0.0.1:0 -policy " + wireTenantMix.server.Policy.String() +
		" -shards 2 -sets 256 -ways 16 -tenant a:pa:2 -tenant b:pb:14 -auto-rebalance 250ms]"
	if got != want {
		t.Errorf("daemon args\n got %s\nwant %s", got, want)
	}
	for _, w := range workloads {
		if w.isWire() && len(w.streams) != clients {
			t.Errorf("%s: %d connections, the closed loop has %s", w.name, len(w.streams), strconv.Itoa(clients))
		}
	}
}
