package main

import (
	"os"
	"testing"
	"time"
)

func TestParseStat(t *testing.T) {
	// A command name may hold spaces and parentheses.
	const line = "4242 (cpa (cached) d) S 1 4242 4242 0 -1 4194560 1234 0 0 0 157 43 0 0 20 0 7 0 123456 1234567890 2345 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"
	got, err := parseStat([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if got.user != 1570*time.Millisecond || got.sys != 430*time.Millisecond {
		t.Errorf("parseStat = %+v, want 1.57s user 0.43s sys", got)
	}
	if got.total() != 2*time.Second || got.sub(cpuTimes{time.Second, 0}).user != 570*time.Millisecond {
		t.Error("cpuTimes arithmetic")
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 a b c"} {
		if _, err := parseStat([]byte(bad)); err == nil {
			t.Errorf("parseStat(%q) succeeded", bad)
		}
	}
}

func TestParseStatusKB(t *testing.T) {
	const status = "Name:\tcpacached\nVmPeak:\t 1234567 kB\nVmHWM:\t   30912 kB\nVmRSS:\t   20000 kB\nThreads:\t7\n"
	if kb, err := parseStatusKB([]byte(status), "VmHWM"); err != nil || kb != 30912 {
		t.Errorf("VmHWM = %d, %v", kb, err)
	}
	if _, err := parseStatusKB([]byte(status), "VmSwap"); err == nil {
		t.Error("a missing key parsed")
	}
	if _, err := parseStatusKB([]byte("VmHWM:\t12 MB\n"), "VmHWM"); err == nil {
		t.Error("a malformed line parsed")
	}
}

func TestProcOfThisProcess(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc")
	}
	if _, err := procCPU(0); err != nil {
		t.Error(err)
	}
	if mb, err := procPeakRSSMB(os.Getpid()); err != nil || mb <= 0 {
		t.Errorf("peak RSS %v, %v", mb, err)
	}
}
