package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"syscall"
	"time"
)

// buildDir is where the benchmark puts what it builds and writes, inside
// the checkout and named in .gitignore.
const buildDir = ".bench_build/bench"

// moduleRoot walks up from the working directory to the go.mod, so the
// benchmark finds cmd/cpacached from the checkout root (go run ./bench)
// and from bench/ (go test).
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory")
		}
		dir = parent
	}
}

// buildDaemon compiles cmd/cpacached into outDir and returns the binary's
// path. Build time is outside every metric.
func buildDaemon(ctx context.Context, outDir string) (string, error) {
	root, err := moduleRoot()
	if err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "cpacached"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-buildvcs=false", "-o", bin, "./cmd/cpacached")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/cpacached: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is a running cpacached child. Every path that abandons it calls
// kill; the kernel kills it too if the benchmark itself dies (Pdeathsig).
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	log     *daemonLog
	exited  chan struct{} // closed when Wait has returned
	waitErr error         // valid after exited is closed
}

var listenRE = regexp.MustCompile(`listening on (\S+)\n`)

// daemonLog collects the daemon's stderr and reports the listen address
// as soon as the "listening on" line is complete.
type daemonLog struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	addr  chan string
	found bool
}

func (l *daemonLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if !l.found {
		if m := listenRE.FindSubmatch(l.buf.Bytes()); m != nil {
			l.found = true
			l.addr <- string(m[1])
		}
	}
	return len(p), nil
}

func (l *daemonLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// startDaemon execs the binary and waits for its listen address.
func startDaemon(bin string, args []string) (*daemon, error) {
	d := &daemon{
		cmd:    exec.Command(bin, args...),
		log:    &daemonLog{addr: make(chan string, 1)},
		exited: make(chan struct{}),
	}
	d.cmd.Stderr = d.log
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.addr = <-d.log.addr:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("cpacached exited before listening: %v\n%s", d.waitErr, d.log)
	case <-time.After(10 * time.Second):
		d.kill()
		return nil, fmt.Errorf("cpacached did not listen within 10s\n%s", d.log)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop asks for a drain with SIGTERM and requires exit status 0. It
// returns the time from the signal to the exit.
func (d *daemon) stop() (time.Duration, error) {
	start := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, fmt.Errorf("signal cpacached: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.kill()
		return 0, fmt.Errorf("cpacached ignored SIGTERM for 15s\n%s", d.log)
	}
	if d.waitErr != nil {
		return 0, fmt.Errorf("cpacached exit: %w\n%s", d.waitErr, d.log)
	}
	return time.Since(start), nil
}

// kill ends the daemon at once and waits until it is gone. It is safe on
// a daemon that has already exited.
func (d *daemon) kill() {
	d.cmd.Process.Kill() // fails only if the process has already been reaped
	<-d.exited
}
