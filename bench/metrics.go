package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units
// and directions; metrics_test.go keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
}

// endToEnd is what a user of the system sees, measured with tracing off.
// Every workload reports every one; the unit of work and the unit of
// latency are per workload (see README.md).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher"},   // acknowledged work per second of the measured window
	{"p50_us", "us", "lower"},        // median latency of one unit: batch round trip, 1024-lookup block, Fig-7 sweep
	{"p95_us", "us", "lower"},        // 95th percentile of the same
	{"hit_rate", "ratio", "higher"},  // GET hit share seen by the client (simulated L2 hit share for repro_fig7)
	{"cpu_us_per_op", "us", "lower"}, // user+sys CPU of the system under test per unit of work
	{"peak_rss_mb", "MB", "lower"},   // VmHWM of the system under test
	{"setup_s", "s", "lower"},        // median set-up time: exec/New through preload and count-based warm-up
	{"ok_share", "ratio", "higher"},  // 1 - failed/attempted; 1 unless something is broken
}

// perLayer is what the traced pass measures, each layer called from
// outside through its public functions.
var perLayer = []metricDef{
	{"resp.parse_ns_per_req", "ns", "lower"},
	{"resp.parse_allocs_per_req", "count", "lower"},
	{"resp.parse_bytes_per_req", "B", "lower"},
	{"resp.encode_ns_per_req", "ns", "lower"},
	{"resp.encode_allocs_per_req", "count", "lower"},

	{"cpacache.op_ns_per_req", "ns", "lower"},
	{"cpacache.get_hit_ns", "ns", "lower"},
	{"cpacache.get_miss_ns", "ns", "lower"},
	{"cpacache.set_update_ns", "ns", "lower"},
	{"cpacache.set_evict_ns", "ns", "lower"},
	{"cpacache.set_ttl_ns", "ns", "lower"},
	{"cpacache.allocs_per_op", "count", "lower"},
	{"cpacache.par_get_hit_ns", "ns", "lower"},
	{"cpacache.par_scaling", "ratio", "higher"},
	{"cpacache.rebalance_us", "us", "lower"},
	{"cpacache.evictions", "count", "lower"},
	{"cpacache.expirations", "count", "lower"},
	{"cpacache.rebalances", "count", "higher"},
	{"cpacache.rebalances_skipped", "count", "lower"},
	{"cpacache.tenant_a_ways", "count", "higher"},

	{"server.inproc_ns_per_req", "ns", "lower"},
	{"server.allocs_per_req", "count", "lower"},
	{"server.bytes_per_req", "B", "lower"},
	{"server.self_ns_per_req", "ns", "lower"},
	{"server.info_us", "us", "lower"},

	{"cpacached.user_us_per_req", "us", "lower"},
	{"cpacached.sys_us_per_req", "us", "lower"},
	{"cpacached.startup_ms", "ms", "lower"},
	{"cpacached.drain_ms", "ms", "lower"},
	{"wire.residual_ns_per_req", "ns", "lower"},
	{"wire.residual_share", "ratio", "lower"},

	{"driver.cpu_us_per_req", "us", "lower"},
	{"driver.batches", "count", "higher"},
	{"driver.p99_us", "us", "lower"},
	{"driver.p999_us", "us", "lower"},
	{"driver.max_us", "us", "lower"},

	{"plru.touch_ns", "ns", "lower"},
	{"plru.victim_ns", "ns", "lower"},
	{"plru.fill_ns", "ns", "lower"},
	{"cpapart.minmisses_us", "us", "lower"},
	{"cpapart.buddy_us", "us", "lower"},

	{"cache.access_ns", "ns", "lower"},
	{"cmp.minst_per_s_1job", "Minst/s", "higher"},
	{"experiments.fig7_serial_s", "s", "lower"},
	{"sched.speedup", "ratio", "higher"},
	{"sched.jobs", "count", "lower"},

	{"trace.overhead_share", "ratio", "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports: the last line of its standard output is
// this object, with exactly these keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string // human-readable lines printed above the metrics
}

// values collects measurements by metric name before they are checked
// against a definition list.
type values map[string]float64

// report shapes a run's outcome into the result for defs: every defined
// metric must have been measured, and nothing else may be.
func report(defs []metricDef, o *outcome) (*result, error) {
	r := &result{
		Correct:   o.correct && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
		notes:     o.notes,
	}
	for _, d := range defs {
		v, ok := o.vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metric{v, d.unit}
	}
	for name := range o.vals {
		if _, ok := r.Metrics[name]; !ok {
			return nil, fmt.Errorf("measured %s, which is not a defined metric", name)
		}
	}
	return r, nil
}

// print writes the notes and one "name value unit" line per metric, in
// definition order, then the JSON object as the last line.
func (r *result) print(w io.Writer, defs []metricDef) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, d := range defs {
		if m, ok := r.Metrics[d.name]; ok {
			fmt.Fprintf(w, "%-32s %16.6g %s\n", d.name, m.Value, m.Unit)
		}
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
