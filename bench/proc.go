package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"time"
)

// clockTick is the kernel's USER_HZ: /proc/<pid>/stat counts CPU time in
// units of 1/100 s on every Linux ABI.
const clockTick = 10 * time.Millisecond

// cpuTimes is a process's accumulated user and system CPU time.
type cpuTimes struct{ user, sys time.Duration }

func (c cpuTimes) total() time.Duration { return c.user + c.sys }

func (c cpuTimes) sub(o cpuTimes) cpuTimes { return cpuTimes{c.user - o.user, c.sys - o.sys} }

// parseStat extracts utime and stime (fields 14 and 15) from the content
// of /proc/<pid>/stat. The command name (field 2) may itself hold spaces
// and parentheses, so fields are counted from the last ')'.
func parseStat(data []byte) (cpuTimes, error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return cpuTimes{}, fmt.Errorf("proc stat: no command field in %q", data)
	}
	f := bytes.Fields(data[i+1:]) // f[0] is field 3 (state)
	if len(f) < 13 {
		return cpuTimes{}, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	ut, err1 := strconv.ParseUint(string(f[11]), 10, 64)
	st, err2 := strconv.ParseUint(string(f[12]), 10, 64)
	if err1 != nil || err2 != nil {
		return cpuTimes{}, fmt.Errorf("proc stat: bad utime/stime %q %q", f[11], f[12])
	}
	return cpuTimes{time.Duration(ut) * clockTick, time.Duration(st) * clockTick}, nil
}

// parseStatusKB extracts a "Key:   <n> kB" line (VmHWM, VmRSS) from the
// content of /proc/<pid>/status.
func parseStatusKB(data []byte, key string) (uint64, error) {
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		rest, ok := bytes.CutPrefix(line, []byte(key+":"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", key, line)
		}
		return strconv.ParseUint(string(f[0]), 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// procCPU reads a live process's CPU times; pid 0 means this process.
func procCPU(pid int) (cpuTimes, error) {
	data, err := os.ReadFile(procPath(pid, "stat"))
	if err != nil {
		return cpuTimes{}, err
	}
	return parseStat(data)
}

// procPeakRSSMB reads a live process's peak resident set (VmHWM) in MB.
func procPeakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(procPath(pid, "status"))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(data, "VmHWM")
	return float64(kb) / 1024, err
}

func procPath(pid int, file string) string {
	if pid == 0 {
		return "/proc/self/" + file
	}
	return fmt.Sprintf("/proc/%d/%s", pid, file)
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, _ := os.ReadFile("/proc/cpuinfo") // a missing file only blanks a host fact
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if k, v, ok := bytes.Cut(line, []byte{':'}); ok && string(bytes.TrimSpace(k)) == "model name" {
			return string(bytes.TrimSpace(v))
		}
	}
	return "unknown"
}
