package main

import (
	"encoding/json"
	"slices"
	"testing"
)

// BENCHMARK.json is a contract with whatever runs the benchmark; the
// names, units and directions in it must be the ones the code reports.
func TestBenchmarkFileMatchesTheCode(t *testing.T) {
	file, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layers []metricDef
	var largest float64
	for _, m := range file.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = max(largest, m.Bound)
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better: %+v", m)
		}
	}
	for _, m := range file.EndToEnd {
		if m.Name == "setup_s" && m.Bound != largest {
			t.Errorf("setup_s has bound %v, the largest is %v", m.Bound, largest)
		}
	}
	for _, m := range file.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end differs from the code:\nfile %v\ncode %v", e2e, endToEnd)
	}
	if !slices.Equal(layers, perLayer) {
		t.Errorf("per_layer differs from the code:\nfile %v\ncode %v", layers, perLayer)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, the code has %v", names, want)
	}
}

func TestReportRequiresExactlyTheDefinedMetrics(t *testing.T) {
	defs := []metricDef{{"a", "s", "lower"}, {"b", "count", "higher"}}
	if _, err := report(defs, &outcome{vals: values{"a": 1}, attempted: 1, correct: true}); err == nil {
		t.Error("a missing metric was accepted")
	}
	if _, err := report(defs, &outcome{vals: values{"a": 1, "b": 2, "c": 3}, attempted: 1, correct: true}); err == nil {
		t.Error("an undefined metric was accepted")
	}
	r, err := report(defs, &outcome{vals: values{"a": 1.5, "b": 2}, attempted: 10, failed: 1, correct: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct {
		t.Error("a run with a failed operation is reported correct")
	}
	line, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"correct":false,"attempted":10,"failed":1,"metrics":{"a":{"value":1.5,"unit":"s"},"b":{"value":2,"unit":"count"}}}`
	if string(line) != want {
		t.Errorf("result line\n got %s\nwant %s", line, want)
	}
}
