package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestTraceFileIsChromeTraceEvents(t *testing.T) {
	tr := newTracer()
	a, b := tr.thread(), tr.thread()
	root := a.begin("root")
	calls := 0
	total := a.blocks("layer.call", root, 2500, func(lo, hi int) { calls += hi - lo })
	a.end(root, 2500)
	now := time.Now()
	b.add("other", now, now.Add(time.Millisecond), 0, 9, 32)

	if calls != 2500 || len(a.spans) != 4 { // root + blocks of 1024, 1024 and 452
		t.Fatalf("%d calls in %d spans", calls, len(a.spans))
	}
	if d, ops := a.sum("layer.call"); d != total || ops != 2500 {
		t.Errorf("sum = %v over %d ops, blocks returned %v", d, ops, total)
	}
	if a.spans[0].ops != 2500 || a.spans[0].end < a.spans[3].end {
		t.Errorf("the root span was not closed around its children: %+v", a.spans[0])
	}

	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	if n, err := tr.write(path); err != nil || n != 5 {
		t.Fatalf("write: %d spans, %v", n, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct{ ID, Parent, Batch, Ops int }
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("the trace file is not JSON: %v", err)
	}
	if len(file.TraceEvents) != 5 {
		t.Fatalf("%d events", len(file.TraceEvents))
	}
	rootEv, child, other := file.TraceEvents[0], file.TraceEvents[1], file.TraceEvents[4]
	if rootEv.Name != "root" || rootEv.Ph != "X" || child.Args.Parent != rootEv.Args.ID || child.Args.Ops != blockSize {
		t.Errorf("root %+v child %+v", rootEv, child)
	}
	if other.Tid == rootEv.Tid || other.Args.Batch != 9 || other.Args.Ops != 32 || other.Dur != 1000 {
		t.Errorf("other thread's event %+v", other)
	}
}
