package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// counters is a client's own accounting of what it sent and what came
// back. The daemon's INFO must agree with it at the end of a run.
type counters struct {
	sent   int // commands written, of any kind
	gets   int // GETs answered (hit or miss)
	hits   int
	sets   int // SETs answered +OK
	failed int // error replies, wrong value bytes, wrong reply kinds
}

func (c *counters) add(o counters) {
	c.sent += o.sent
	c.gets += o.gets
	c.hits += o.hits
	c.sets += o.sets
	c.failed += o.failed
}

// client is one closed-loop connection: it writes a pipelined batch and
// sends nothing more until the batch's last reply has arrived.
type client struct {
	spec     streamSpec
	pipeline int
	conn     net.Conn
	br       *bufio.Reader
	gen      *gen
	table    [][]byte
	wbuf     []byte
	batch    []op
	total    counters // since connect
	spans    *spanBuf // nil unless traced
	batches  int
}

func dialClient(addr string, spec streamSpec, pipeline int, seed int64) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c := &client{
		spec:     spec,
		pipeline: pipeline,
		conn:     conn,
		br:       bufio.NewReaderSize(conn, 64<<10),
		gen:      newGen(spec, seed),
		table:    valueTable(spec.valueSize),
	}
	if spec.auth != "" {
		if err := c.command("+OK", "AUTH", spec.auth); err != nil {
			conn.Close()
			return nil, err
		}
	}
	return c, nil
}

// command sends one command outside the measured stream and requires the
// given one-line reply.
func (c *client) command(want string, args ...string) error {
	c.total.sent++
	if _, err := c.conn.Write(appendCommand(nil, args...)); err != nil {
		return err
	}
	line, err := c.br.ReadString('\n')
	if err != nil {
		return err
	}
	if got := strings.TrimRight(line, "\r\n"); got != want {
		return fmt.Errorf("%s: reply %q, want %q", args[0], got, want)
	}
	return nil
}

// drive runs batches of requests drawn from next until next reports the
// end or the deadline (if not zero) has passed, and returns what it sent
// and saw. With samples non-nil it records every batch's round trip,
// write-start to last reply, in microseconds.
func (c *client) drive(ctx context.Context, next func() (op, bool), deadline time.Time, samples *[]float64) (counters, error) {
	var cnt counters
	for ctx.Err() == nil {
		encStart := time.Now()
		if !deadline.IsZero() && !encStart.Before(deadline) {
			break
		}
		c.wbuf, c.batch = c.wbuf[:0], c.batch[:0]
		for len(c.batch) < c.pipeline {
			o, ok := next()
			if !ok {
				break
			}
			c.batch = append(c.batch, o)
			c.wbuf = appendRequest(c.wbuf, c.spec.prefix, o, c.table)
		}
		if len(c.batch) == 0 {
			break
		}
		cnt.sent += len(c.batch)
		c.batches++

		writeStart := time.Now()
		if _, err := c.conn.Write(c.wbuf); err != nil {
			return cnt, err
		}
		var flushed, first time.Time
		if c.spans != nil {
			flushed = time.Now()
			if _, err := c.br.Peek(1); err != nil {
				return cnt, err
			}
			first = time.Now()
		}
		for _, o := range c.batch {
			if err := c.readReply(o, &cnt); err != nil {
				return cnt, err
			}
		}
		end := time.Now()
		if samples != nil {
			*samples = append(*samples, float64(end.Sub(writeStart))/1e3)
		}
		if c.spans != nil {
			n := len(c.batch)
			parent := c.spans.add("driver.batch", encStart, end, 0, c.batches, n)
			c.spans.add("driver.encode", encStart, writeStart, parent, c.batches, n)
			c.spans.add("driver.flush", writeStart, flushed, parent, c.batches, n)
			c.spans.add("driver.wait_first_reply", flushed, first, parent, c.batches, n)
			c.spans.add("driver.read_replies", first, end, parent, c.batches, n)
		}
	}
	c.total.add(cnt)
	return cnt, ctx.Err()
}

// readReply consumes the reply to o and scores it: a SET must answer +OK,
// a GET a null or exactly the value derived from its key. Anything else
// counts as a failed request; only a broken stream is an error.
func (c *client) readReply(o op, cnt *counters) error {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return err
	}
	if len(line) < 3 {
		return fmt.Errorf("short reply line %q", line)
	}
	switch line[0] {
	case '+':
		if o.kind == opSet && string(line) == "+OK\r\n" {
			cnt.sets++
		} else {
			cnt.failed++
		}
	case '-':
		cnt.failed++
	case '$':
		n, err := strconv.Atoi(string(line[1 : len(line)-2]))
		if err != nil {
			return fmt.Errorf("bad bulk header %q", line)
		}
		if o.kind != opGet {
			cnt.failed++
		} else {
			cnt.gets++
		}
		if n < 0 {
			if o.kind == opGet {
				c.gen.miss(o.key)
			}
			return nil
		}
		body, err := c.br.Peek(n + 2)
		if err != nil {
			return err
		}
		if o.kind == opGet {
			cnt.hits++
			if !bytes.Equal(body[:n], valueOf(c.table, o.key)) {
				cnt.failed++
			}
		}
		if _, err := c.br.Discard(n + 2); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unexpected reply %q", line)
	}
	return nil
}

// wireSession is a daemon with its clients connected, preloaded and
// warmed up: everything setup_s covers.
type wireSession struct {
	w       *benchWorkload
	d       *daemon
	clients []*client
	ctl     *client       // control connection: PING and INFO
	startup time.Duration // exec to first PONG
	setup   time.Duration // exec to warm-up complete
}

// window is one measured interval of a session.
type window struct {
	wall      time.Duration
	perClient []counters
	total     counters
	samples   []float64 // batch round trips in µs, ascending
	daemonCPU cpuTimes
	driverCPU cpuTimes
}

func (w window) opsPerSec() float64 { return float64(w.total.sent) / w.wall.Seconds() }

// newWireSession execs the daemon and brings it to the measured state.
// On any error the daemon is killed before returning.
func newWireSession(ctx context.Context, w *benchWorkload, bin string, seed int64) (*wireSession, error) {
	start := time.Now()
	d, err := startDaemon(bin, w.daemonArgs())
	if err != nil {
		return nil, err
	}
	s := &wireSession{w: w, d: d}
	if err := s.bringUp(ctx, start, seed); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

// bringUp connects, preloads and warms up.
func (s *wireSession) bringUp(ctx context.Context, start time.Time, seed int64) (err error) {
	w := s.w
	ctlSpec := streamSpec{auth: w.streams[0].auth, valueSize: 1}
	if s.ctl, err = dialClient(s.d.addr, ctlSpec, 1, 0); err != nil {
		return err
	}
	if err := s.ctl.command("+PONG", "PING"); err != nil {
		return err
	}
	s.startup = time.Since(start)

	for i, spec := range w.streams {
		c, err := dialClient(s.d.addr, spec, w.pipeline, clientSeed(seed, i))
		if err != nil {
			return err
		}
		s.clients = append(s.clients, c)
	}
	if w.preload {
		// Every client SETs its stream's whole key space, as newModel does
		// for the replays; clients that share one write it twice.
		if _, err := s.phase(ctx, func(_ int, c *client) (counters, error) {
			k := c.spec.keyBase
			return c.drive(ctx, func() (op, bool) {
				if k == c.spec.keyBase+c.spec.keys {
					return op{}, false
				}
				k++
				return op{kind: opSet, key: uint32(k - 1)}, true
			}, time.Time{}, nil)
		}); err != nil {
			return err
		}
	}
	// Warm-up is a request count, not a duration, so that work a change
	// moves into set-up shows in setup_s.
	if _, err := s.phase(ctx, func(i int, c *client) (counters, error) {
		left := w.warmup / len(s.clients)
		return c.drive(ctx, func() (op, bool) {
			if left == 0 {
				return op{}, false
			}
			left--
			return c.gen.next(), true
		}, time.Time{}, nil)
	}); err != nil {
		return err
	}
	s.setup = time.Since(start)
	return nil
}

// phase runs fn on every client at once and waits for all of them.
func (s *wireSession) phase(ctx context.Context, fn func(i int, c *client) (counters, error)) ([]counters, error) {
	out := make([]counters, len(s.clients))
	errs := make([]error, len(s.clients))
	var wg sync.WaitGroup
	for i, c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = fn(i, c)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return out, fmt.Errorf("client %d (%s): %w", i, s.clients[i].spec.name, err)
		}
	}
	return out, nil
}

// measure runs the closed loop for d and samples both processes' CPU
// counters at the window's edges. With tr set, every batch is traced.
func (s *wireSession) measure(ctx context.Context, d time.Duration, tr *tracer) (window, error) {
	samples := make([][]float64, len(s.clients))
	for _, c := range s.clients {
		c.spans = nil
		if tr != nil {
			c.spans = tr.thread()
		}
	}
	daemon0, err := procCPU(s.d.pid())
	if err != nil {
		return window{}, err
	}
	driver0, err := procCPU(0)
	if err != nil {
		return window{}, err
	}
	start := time.Now()
	deadline := start.Add(d)
	per, err := s.phase(ctx, func(i int, c *client) (counters, error) {
		return c.drive(ctx, func() (op, bool) { return c.gen.next(), true }, deadline, &samples[i])
	})
	win := window{wall: time.Since(start), perClient: per}
	if err != nil {
		return win, err
	}
	daemon1, err := procCPU(s.d.pid())
	if err != nil {
		return win, err
	}
	driver1, err := procCPU(0)
	if err != nil {
		return win, err
	}
	win.daemonCPU, win.driverCPU = daemon1.sub(daemon0), driver1.sub(driver0)
	for i, c := range per {
		win.total.add(c)
		win.samples = append(win.samples, samples[i]...)
	}
	slices.Sort(win.samples)
	return win, nil
}

// infoStats is what the benchmark reads out of the daemon's INFO reply.
type infoStats struct {
	commands          int
	rebalances        int
	rebalancesSkipped int
	tenants           []map[string]string // the key=value pairs of each tenantN line
}

func (in infoStats) tenantInt(t int, key string) int {
	n, _ := strconv.Atoi(in.tenants[t][key]) // parseInfo verified the fields used
	return n
}

func (in infoStats) ways() []int {
	ways := make([]int, len(in.tenants))
	for t := range ways {
		ways[t] = in.tenantInt(t, "ways")
	}
	return ways
}

func (in infoStats) sumTenants(key string) int {
	sum := 0
	for t := range in.tenants {
		sum += in.tenantInt(t, key)
	}
	return sum
}

func parseInfo(text string) (infoStats, error) {
	var in infoStats
	top := map[string]*int{
		"total_commands_processed": &in.commands,
		"rebalances":               &in.rebalances,
		"rebalances_skipped":       &in.rebalancesSkipped,
	}
	seen := 0
	for _, line := range strings.Split(text, "\r\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		if dst := top[k]; dst != nil {
			n, err := strconv.Atoi(v)
			if err != nil {
				return in, fmt.Errorf("INFO %s: %w", k, err)
			}
			*dst = n
			seen++
		}
		if strings.HasPrefix(k, "tenant") {
			fields := map[string]string{}
			for _, kv := range strings.Split(v, ",") {
				fk, fv, _ := strings.Cut(kv, "=")
				fields[fk] = fv
			}
			for _, need := range []string{"ways", "hits", "misses", "evictions", "expirations"} {
				if _, err := strconv.Atoi(fields[need]); err != nil {
					return in, fmt.Errorf("INFO %s: field %s: %w", k, need, err)
				}
			}
			in.tenants = append(in.tenants, fields)
		}
	}
	if seen != len(top) || len(in.tenants) == 0 {
		return in, fmt.Errorf("INFO reply lacks counters the benchmark checks:\n%s", text)
	}
	return in, nil
}

// info fetches INFO and checks the daemon's accounting against the
// clients' own: every command written was processed, and every GET was
// scored a hit or a miss for the right tenant. A mismatch is returned as
// a description, not as an error.
func (s *wireSession) info() (infoStats, string, error) {
	s.ctl.total.sent++
	if _, err := s.ctl.conn.Write(appendCommand(nil, "INFO")); err != nil {
		return infoStats{}, "", err
	}
	header, err := s.ctl.br.ReadString('\n')
	if err != nil {
		return infoStats{}, "", err
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(header, "$"), "\r\n"))
	if err != nil || n < 0 {
		return infoStats{}, "", fmt.Errorf("INFO: reply %q is not a bulk string", header)
	}
	body := make([]byte, n+2)
	if _, err := io.ReadFull(s.ctl.br, body); err != nil {
		return infoStats{}, "", err
	}
	in, err := parseInfo(string(body[:n]))
	if err != nil {
		return in, "", err
	}
	sent := s.ctl.total.sent
	hits, misses := make([]int, len(in.tenants)), make([]int, len(in.tenants))
	for _, c := range s.clients {
		sent += c.total.sent
		hits[c.spec.tenant] += c.total.hits
		misses[c.spec.tenant] += c.total.gets - c.total.hits
	}
	var bad []string
	if in.commands != sent {
		bad = append(bad, fmt.Sprintf("daemon processed %d commands, clients sent %d", in.commands, sent))
	}
	for t := range in.tenants {
		if h, m := in.tenantInt(t, "hits"), in.tenantInt(t, "misses"); h != hits[t] || m != misses[t] {
			bad = append(bad, fmt.Sprintf("tenant %d: daemon counts %d hits %d misses, clients saw %d and %d", t, h, m, hits[t], misses[t]))
		}
	}
	return in, strings.Join(bad, "; "), nil
}

func (s *wireSession) closeConns() {
	for _, c := range s.clients {
		c.conn.Close()
	}
	if s.ctl != nil {
		s.ctl.conn.Close()
	}
}

// stop drains the daemon and requires exit status 0.
func (s *wireSession) stop() (time.Duration, error) {
	s.closeConns()
	return s.d.stop()
}

func (s *wireSession) kill() {
	s.closeConns()
	s.d.kill()
}

// totals sums what every client of the session sent and saw since connect.
func (s *wireSession) totals() counters {
	var t counters
	for _, c := range s.clients {
		t.add(c.total)
	}
	return t
}
