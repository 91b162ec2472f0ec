package main

import (
	"context"
	"fmt"
	"time"
)

// setups is how many times a run sets the system up; setup_s is the
// median, so one slow exec or page-cache miss does not move it.
const setups = 3

// outcome is what one measured run produced, before it is shaped into a
// result.
type outcome struct {
	vals      values
	attempted int
	failed    int
	correct   bool
	notes     []string
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// count adds a finished session's requests to the run's totals.
func (o *outcome) count(c counters) {
	o.attempted += c.sent
	o.failed += c.failed
}

// latencyValues fills the two metrics every workload derives from its
// latency samples (ascending, in µs) and notes the sample count.
func (o *outcome) latencyValues(samples []float64, unit string) {
	o.vals["p50_us"] = percentile(samples, 0.50)
	o.vals["p95_us"] = percentile(samples, 0.95)
	o.notef("p50_us/p95_us: %d samples, each %s", len(samples), unit)
}

func (o *outcome) okShare() {
	o.vals["ok_share"] = 1 - float64(o.failed)/float64(max(o.attempted, 1))
}

// hitRate is the GET hit share over the clients whose spec counts toward
// hit_rate.
func hitRate(streams []streamSpec, per []counters) float64 {
	var gets, hits int
	for i, c := range per {
		if streams[i].scored {
			gets += c.gets
			hits += c.hits
		}
	}
	return float64(hits) / float64(max(gets, 1))
}

// runWire measures a wire workload end to end with tracing off: the real
// cpacached on loopback, a closed loop of one connection per stream.
func runWire(ctx context.Context, w *benchWorkload, seed int64, d time.Duration) (*outcome, error) {
	bin, err := buildDaemon(ctx, buildDir)
	if err != nil {
		return nil, err
	}
	o := &outcome{vals: values{}, correct: true}
	var setupTimes []float64
	var s *wireSession
	for i := range setups {
		if s, err = newWireSession(ctx, w, bin, seed); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, s.setup.Seconds())
		if i < setups-1 {
			o.count(s.totals())
			if _, err := s.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer s.kill() // a no-op once stop has succeeded

	win, err := s.measure(ctx, d, nil)
	if err != nil {
		return nil, err
	}
	info, mismatch, err := s.info()
	if err != nil {
		return nil, err
	}
	rss, err := procPeakRSSMB(s.d.pid())
	if err != nil {
		return nil, err
	}
	o.count(s.totals())
	if _, err := s.stop(); err != nil {
		return nil, err
	}
	if mismatch != "" {
		o.correct = false
		o.notef("INFO cross-check FAILED: %s", mismatch)
	}

	o.vals["ops_per_s"] = win.opsPerSec()
	o.latencyValues(win.samples, fmt.Sprintf("the round trip of a %d-request batch", w.pipeline))
	o.vals["hit_rate"] = hitRate(w.streams, win.perClient)
	o.vals["cpu_us_per_op"] = float64(win.daemonCPU.total().Microseconds()) / float64(win.total.sent)
	o.vals["peak_rss_mb"] = rss
	o.vals["setup_s"] = median(setupTimes)
	o.okShare()
	o.notef("window %.3fs, %d requests (%d GET, %d SET), driver CPU %.3f us/request",
		win.wall.Seconds(), win.total.sent, win.total.gets, win.total.sets,
		float64(win.driverCPU.total().Microseconds())/float64(win.total.sent))
	o.notef("daemon: %d commands, %d evictions, %d expirations, %d rebalances, tenant ways %v",
		info.commands, info.sumTenants("evictions"), info.sumTenants("expirations"), info.rebalances, info.ways())
	return o, nil
}
