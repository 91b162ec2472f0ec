package main

import (
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// daemonProcesses lists the pids whose command line runs bin.
func daemonProcesses(t *testing.T, bin string) []string {
	t.Helper()
	entries, err := filepath.Glob("/proc/[0-9]*/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	var pids []string
	for _, e := range entries {
		if data, err := os.ReadFile(e); err == nil && strings.HasPrefix(string(data), bin+"\x00") {
			pids = append(pids, filepath.Base(filepath.Dir(e)))
		}
	}
	return pids
}

func TestDaemonLifecycleLeavesNoProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/cpacached")
	}
	bin, err := buildDaemon(t.Context(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// Clean path: listen line parsed, SIGTERM drains, exit status 0.
	d, err := startDaemon(bin, wireHotGet.daemonArgs())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(d.addr, "127.0.0.1:") || strings.HasSuffix(d.addr, ":0") {
		t.Errorf("listen address %q", d.addr)
	}
	if _, err := d.stop(); err != nil {
		t.Errorf("stop: %v", err)
	}
	if !strings.Contains(d.log.String(), "cpacached drained") {
		t.Errorf("no drain line in the daemon's log:\n%s", d.log)
	}

	// kill ends a live daemon at once and is harmless afterwards.
	d, err = startDaemon(bin, wireHotGet.daemonArgs())
	if err != nil {
		t.Fatal(err)
	}
	pid := d.pid()
	d.kill()
	d.kill()
	if err := syscall.Kill(pid, 0); err != syscall.ESRCH {
		t.Errorf("pid %d after kill: %v, want no such process", pid, err)
	}

	// A daemon that refuses its flags is reported, not waited for.
	if _, err := startDaemon(bin, []string{"-addr", "127.0.0.1:0", "-tenant", "a:pa:3", "-tenant", "b:pb:3"}); err == nil {
		t.Error("a daemon whose quotas do not sum to the ways started")
	}

	// Failure after the daemon is up: the session's second connection is
	// refused its AUTH, and the set-up must take the daemon down with it.
	broken := wireTenantMix
	broken.streams = []streamSpec{wireTenantMix.streams[0], wireTenantMix.streams[1]}
	broken.streams[1].auth = "wrong"
	broken.warmup = 1000
	if _, err := newWireSession(t.Context(), &broken, bin, 1); err == nil || !strings.Contains(err.Error(), "WRONGPASS") {
		t.Errorf("a session with a wrong password: %v", err)
	}
	if left := daemonProcesses(t, bin); len(left) != 0 {
		t.Errorf("cpacached processes left behind: %v", left)
	}
}

// A short session end to end: every reply checked, INFO in step with the
// clients' own accounting, exit status 0.
func TestWireSessionAccountsForEveryCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/cpacached")
	}
	bin, err := buildDaemon(t.Context(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []*benchWorkload{&wireHotGet, &wireTenantMix} {
		w := *base
		w.warmup = 20_000
		s, err := newWireSession(t.Context(), &w, bin, 3)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		win, err := s.measure(t.Context(), 200*time.Millisecond, newTracer())
		if err != nil {
			s.kill()
			t.Fatalf("%s: %v", w.name, err)
		}
		_, mismatch, err := s.info()
		if err != nil || mismatch != "" {
			t.Errorf("%s: INFO cross-check: %v %s", w.name, err, mismatch)
		}
		if _, err := s.stop(); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if win.total.failed != 0 || win.total.sent == 0 || win.total.gets+win.total.sets != win.total.sent {
			t.Errorf("%s: window counters %+v", w.name, win.total)
		}
		// Every traced batch is one parent span and four children that
		// carry its batch id.
		spans := s.clients[0].spans.spans
		if len(win.samples) == 0 || len(spans) == 0 || len(spans)%5 != 0 {
			t.Fatalf("%s: %d samples, %d spans", w.name, len(win.samples), len(spans))
		}
		if spans[0].name != "driver.batch" || spans[0].ops != w.pipeline {
			t.Errorf("%s: first span %+v", w.name, spans[0])
		}
		for _, child := range spans[1:5] {
			if child.parent != spans[0].id || child.batch != spans[0].batch || child.start < spans[0].start || child.end > spans[0].end {
				t.Errorf("%s: span %+v is not inside its batch %+v", w.name, child, spans[0])
			}
		}
		if left := daemonProcesses(t, bin); len(left) != 0 {
			t.Errorf("%s: cpacached processes left behind: %v", w.name, left)
		}
	}
}
