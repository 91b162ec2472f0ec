// Package server implements cpacached's network engine: a multi-tenant
// RESP (redis-compatible) cache service over pkg/cpacache.
//
// One goroutine per connection reads commands through internal/resp,
// executes them against a shared Cache[string, []byte], and writes
// replies in order. Pipelining costs nothing extra: replies accumulate
// in the connection's buffered writer and flush only when the parser
// has no more buffered input to serve, so a burst of N commands pays
// one syscall out instead of N. MGET and MSET funnel straight into the
// cache's GetBatch/SetBatch, per-key loops over its single-key paths.
//
// Tenancy rides on the cache's way partitioning: each configured tenant
// maps to a cpacache tenant id with an optional way quota and byte
// budget, and AUTH binds a connection to its tenant by password. With
// no tenants configured the server is a single-tenant open cache, as a
// stock redis instance is.
//
// Shutdown drains: the listener closes, every connection finishes the
// commands it has fully read (their replies flush), blocked readers are
// woken by a read deadline, and the cache's background machinery stops
// via Close. Connections that ignore the drain past the context
// deadline are force-closed.
//
// The serving path defends itself: global and per-tenant connection
// caps ("-ERR max number of clients reached"), per-tenant token-bucket
// rate limits on ops/s and request bytes/s ("-BUSY"), read/idle and
// write deadlines that evict slow clients, a per-connection panic
// bulkhead (reply, close, count — never the process), and an accept
// loop that retries transient errors under backoff instead of exiting.
// Every defense increments a counter surfaced through INFO.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resp"
	"repro/pkg/cpacache"
	"repro/pkg/plru"
)

// TenantConfig declares one tenant of the cache service.
type TenantConfig struct {
	// Name labels the tenant in INFO output.
	Name string
	// Password is the AUTH credential binding a connection to this
	// tenant. Empty passwords are rejected by New when more than one
	// tenant is configured (they would be unreachable).
	Password string
	// Ways is the tenant's initial way quota; 0 means an even share.
	// Either every tenant sets Ways (summing to Config.Ways) or none
	// does.
	Ways int
	// Budget is the tenant's byte budget (0 = unlimited), enforced as
	// way caps at rebalance exactly as cpacache.SetBudgets documents.
	Budget uint64
}

// Config configures a Server. The zero value of any field falls back to
// the default noted on it.
type Config struct {
	Shards int // cache shards (default 8)
	Sets   int // sets per shard (default 1024)
	Ways   int // per-set associativity (default 16)
	Policy plru.Kind

	// PolicyAutoSelect enables online per-tenant policy selection
	// (cpacache.WithPolicyAutoSelect with the default candidate set):
	// every candidate policy runs warm, a shadow directory scores them
	// on sampled sets, and tenants switch at rebalance boundaries. Pair
	// it with AutoRebalance so switches actually happen. INFO reports
	// each tenant's active policy either way.
	PolicyAutoSelect bool

	// Tenants declares the multi-tenant layout; empty means one
	// anonymous tenant with no AUTH required.
	Tenants []TenantConfig

	// DefaultTTL is applied to every SET without an EX/PX option
	// (0 = entries live until displaced).
	DefaultTTL time.Duration

	// MaxBytes caps the cache's resident bytes (key length + value
	// length; 0 = uncapped). Inserts that push past the cap evict other
	// entries in the same write (cpacache.WithMaxBytes), and the
	// watermark ladder below gates writes before the cap is ever
	// reached.
	MaxBytes uint64
	// HardBudgets turns per-tenant Budget values into hard limits
	// enforced evict-on-write (cpacache.WithHardBudgets) instead of
	// rebalance-time way caps only.
	HardBudgets bool
	// HighWatermark and LowWatermark position the memory-pressure
	// ladder as fractions of MaxBytes (both zero = the cache defaults,
	// 0.9 and 0.75). At or above high×MaxBytes the server answers
	// writes with -OOM while reads, deletes and monitoring keep
	// working; between the watermarks the cache's sweeper and
	// auto-rebalance ticker run at an aggressive cadence; recovery
	// below low×MaxBytes clears the state.
	HighWatermark float64
	LowWatermark  float64
	// AutoRebalance enables the cache's background repartitioning
	// ticker (0 = manual only).
	AutoRebalance time.Duration

	// Limits bounds per-frame parser allocation; zero fields use
	// resp.DefaultLimits.
	Limits resp.Limits

	// MaxConns caps concurrently open connections (0 = unlimited).
	// Over the cap, an accepted socket is answered with
	// "-ERR max number of clients reached" and closed; the accept loop
	// keeps running and the rejection is counted in INFO.
	MaxConns int
	// MaxConnsPerTenant caps the connections bound to any one tenant
	// (0 = unlimited). The cap is enforced when the connection binds —
	// at accept for an open single-tenant server, at AUTH otherwise.
	MaxConnsPerTenant int

	// RateLimitOps and RateLimitBytes are per-tenant token-bucket
	// admission limits (commands/s and request bytes/s; 0 = unlimited).
	// Over-limit commands are refused with "-BUSY rate limit exceeded";
	// INFO and CONFIG are exempt so monitoring keeps working under
	// overload. Bursts of one second's worth are admitted.
	RateLimitOps   float64
	RateLimitBytes float64

	// ReadTimeout bounds the wait for the next command on a connection
	// (0 = no limit). A connection that stays silent past it — idle, or
	// too slow to deliver its frame — is evicted and counted in INFO as
	// a slow_client_eviction.
	ReadTimeout time.Duration
	// WriteTimeout bounds one reply flush (0 = no limit). A client that
	// stops reading until the server's write blocks past it is evicted.
	WriteTimeout time.Duration

	// Logf, when non-nil, receives one line per lifecycle event
	// (listen, drain, forced closes, accept retries, panics).
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() {
	if c.Shards == 0 {
		c.Shards = 8
	}
	if c.Sets == 0 {
		c.Sets = 1024
	}
	if c.Ways == 0 {
		c.Ways = 16
	}
}

// Server is one cpacached instance. Create with New, start with Serve
// or ListenAndServe, stop with Shutdown.
type Server struct {
	cfg    Config
	cache  *cpacache.Cache[string, []byte]
	auth   map[string]int  // password -> tenant id
	names  []string        // tenant id -> display name
	gate   bool            // AUTH required before data commands
	limits []tenantLimiter // nil when no rate limits configured

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining atomic.Bool // set under mu, read lock-free on hot paths

	wg          sync.WaitGroup // one per live connection
	startedAt   time.Time
	tenantConns []atomic.Int32 // connections bound per tenant
	nCommands   atomic.Uint64
	nConns      atomic.Uint64

	// Overload / self-healing counters, surfaced through INFO.
	nRejected     atomic.Uint64 // connections refused at a conn cap
	nRateLimited  atomic.Uint64 // commands refused with -BUSY
	nSlowEvicted  atomic.Uint64 // connections evicted on a deadline
	nPanics       atomic.Uint64 // per-connection panics recovered
	nAcceptErrors atomic.Uint64 // transient accept errors retried
	nOOMRejected  atomic.Uint64 // writes refused with -OOM under memory pressure
}

// New builds the cache and the server around it. The cache measures
// entry cost as key length + value length, so tenant byte budgets are
// resident-byte budgets.
func New(cfg Config) (*Server, error) {
	cfg.withDefaults()
	tenants := len(cfg.Tenants)
	if tenants == 0 {
		tenants = 1
	}
	opts := []cpacache.Option{
		cpacache.WithShards(cfg.Shards),
		cpacache.WithSets(cfg.Sets),
		cpacache.WithWays(cfg.Ways),
		cpacache.WithPolicy(cfg.Policy),
		cpacache.WithPartitions(tenants),
		cpacache.WithCost[string, []byte](func(k string, v []byte) uint64 {
			return uint64(len(k) + len(v))
		}),
	}
	if cfg.PolicyAutoSelect {
		opts = append(opts, cpacache.WithPolicyAutoSelect())
	}
	if cfg.DefaultTTL > 0 {
		opts = append(opts, cpacache.WithDefaultTTL(cfg.DefaultTTL))
	}
	if cfg.AutoRebalance > 0 {
		opts = append(opts, cpacache.WithAutoRebalance(cfg.AutoRebalance))
	}
	if cfg.MaxBytes > 0 {
		opts = append(opts, cpacache.WithMaxBytes(cfg.MaxBytes))
	}
	if cfg.HardBudgets {
		opts = append(opts, cpacache.WithHardBudgets())
	}
	if cfg.HighWatermark > 0 || cfg.LowWatermark > 0 {
		opts = append(opts, cpacache.WithPressureWatermarks(cfg.HighWatermark, cfg.LowWatermark))
	}
	cache, err := cpacache.New[string, []byte](opts...)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:         cfg,
		cache:       cache,
		auth:        make(map[string]int, tenants),
		names:       make([]string, tenants),
		conns:       make(map[net.Conn]struct{}),
		tenantConns: make([]atomic.Int32, tenants),
	}
	if cfg.RateLimitOps > 0 || cfg.RateLimitBytes > 0 {
		s.limits = make([]tenantLimiter, tenants)
		for i := range s.limits {
			s.limits[i].init(cfg.RateLimitOps, cfg.RateLimitBytes)
		}
	}
	s.names[0] = "default"
	quotas := make([]int, 0, tenants)
	budgets := make([]uint64, 0, tenants)
	var anyQuota, anyBudget bool
	for i, tc := range cfg.Tenants {
		name := tc.Name
		if name == "" {
			name = fmt.Sprintf("tenant%d", i)
		}
		s.names[i] = name
		if tc.Password == "" {
			if len(cfg.Tenants) > 1 {
				cache.Close()
				return nil, fmt.Errorf("server: tenant %q has no password; multi-tenant configs need AUTH to tell tenants apart", name)
			}
		} else {
			if _, dup := s.auth[tc.Password]; dup {
				cache.Close()
				return nil, fmt.Errorf("server: tenant %q reuses another tenant's password", name)
			}
			s.auth[tc.Password] = i
			s.gate = true
		}
		quotas = append(quotas, tc.Ways)
		budgets = append(budgets, tc.Budget)
		anyQuota = anyQuota || tc.Ways != 0
		anyBudget = anyBudget || tc.Budget != 0
	}
	if anyQuota {
		for i, q := range quotas {
			if q == 0 {
				cache.Close()
				return nil, fmt.Errorf("server: tenant %q has no way quota but others do; set all or none", s.names[i])
			}
		}
		if err := cache.SetQuotas(quotas); err != nil {
			cache.Close()
			return nil, err
		}
	}
	if anyBudget {
		if err := cache.SetBudgets(budgets); err != nil {
			cache.Close()
			return nil, err
		}
	}
	return s, nil
}

// Cache exposes the underlying cache (tests and embedding callers).
func (s *Server) Cache() *cpacache.Cache[string, []byte] { return s.cache }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the listener's address once Serve has been called
// (useful with a ":0" listener), or nil before that.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections on ln until Shutdown closes it. It returns
// nil on a drain-initiated stop and the terminal accept error
// otherwise. Transient accept errors (EMFILE pressure, injected
// faults) do not kill the loop: they are retried under exponential
// backoff, and only a closed listener — the drain signal — ends it.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already shut down")
	}
	s.ln = ln
	s.startedAt = time.Now()
	s.mu.Unlock()
	s.logf("cpacached listening on %s", ln.Addr())
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			// Transient: back off (5ms..1s, doubling) and keep
			// accepting. A file-descriptor squeeze or a hostile burst
			// must not take the listener down for the tenants behind it.
			s.nAcceptErrors.Add(1)
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			s.logf("cpacached accept error (retrying in %v): %v", backoff, err)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
			s.mu.Unlock()
			s.rejectConn(conn)
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.nConns.Add(1)
		go s.handleConn(conn)
	}
}

const maxClientsMsg = "ERR max number of clients reached"

// oomMsg is redis's refusal for writes over maxmemory, byte-compatible
// so clients' OOM handling (retry, backoff, shed) works unchanged.
const oomMsg = "OOM command not allowed when used memory > 'maxmemory'"

// rejectConn answers an over-cap socket without blocking the accept
// loop: the error line goes out under a short deadline in its own
// goroutine, then the socket closes.
func (s *Server) rejectConn(conn net.Conn) {
	s.nRejected.Add(1)
	go func() {
		conn.SetWriteDeadline(time.Now().Add(time.Second))
		conn.Write([]byte("-" + maxClientsMsg + "\r\n"))
		conn.Close()
	}()
}

// Shutdown drains the server: stop accepting, let every connection
// finish (and flush replies for) the commands it has already received,
// wake blocked readers, stop the cache's background goroutines. When
// ctx expires first, the stragglers are force-closed and ctx's error is
// returned; a clean drain returns nil.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		return nil
	}
	s.draining.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	// Wake every reader blocked in a recv: the deadline fails the next
	// read syscall, but data already buffered keeps parsing, so a
	// connection mid-pipeline finishes its batch before noticing.
	for conn := range s.conns {
		conn.SetReadDeadline(time.Now())
	}
	n := len(s.conns)
	s.mu.Unlock()
	s.logf("cpacached draining %d connection(s)", n)

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		forced := len(s.conns)
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		s.logf("cpacached force-closed %d connection(s)", forced)
		<-done
		err = ctx.Err()
	}
	s.cache.Close()
	s.logf("cpacached drained")
	return err
}

// connState is the per-connection session: its tenant binding and the
// batch scratch MGET/MSET reuse across commands.
type connState struct {
	tenant int
	authed bool
	bound  bool // counted in tenantConns[tenant]
	quit   bool

	keys []string
	vals [][]byte
	oks  []bool
}

func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	s.serveConn(conn)
}

// bindTenant counts the connection against a tenant's connection cap,
// or reports the tenant full. The increment-then-check keeps the cap
// exact without a lock.
func (s *Server) bindTenant(st *connState, tenant int) bool {
	n := s.tenantConns[tenant].Add(1)
	if max := s.cfg.MaxConnsPerTenant; max > 0 && int(n) > max {
		s.tenantConns[tenant].Add(-1)
		return false
	}
	st.tenant = tenant
	st.bound = true
	return true
}

// flush writes out the connection's buffered replies, under the write
// deadline when one is configured. A flush that times out means the
// client stopped reading while the server's buffers filled — that
// connection is a slow client and the timeout is its eviction.
func (s *Server) flush(conn net.Conn, w *resp.Writer) error {
	if s.cfg.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	}
	err := w.Flush()
	if err != nil && isTimeout(err) && !s.draining.Load() {
		s.nSlowEvicted.Add(1)
		s.logf("cpacached evicting slow client %s: reply flush exceeded %v", conn.RemoteAddr(), s.cfg.WriteTimeout)
	}
	return err
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// serveConn runs one session's read-dispatch-flush loop. Its deferred
// recover is the panic bulkhead: a panic while serving one connection
// is counted, answered with -ERR, and costs exactly that connection —
// never the process and never another tenant's session.
func (s *Server) serveConn(conn net.Conn) {
	st := &connState{authed: !s.gate}
	defer func() {
		if st.bound {
			s.tenantConns[st.tenant].Add(-1)
		}
		if p := recover(); p != nil {
			s.nPanics.Add(1)
			s.logf("cpacached recovered panic serving %s (connection dropped): %v\n%s",
				conn.RemoteAddr(), p, debug.Stack())
			// Best-effort last reply on a fresh writer: the session's
			// writer may hold a half-rendered frame.
			conn.SetWriteDeadline(time.Now().Add(time.Second))
			pw := resp.NewWriter(conn)
			pw.Error("ERR internal error")
			pw.Flush()
		}
	}()
	w := resp.NewWriter(conn)
	if !s.gate && !s.bindTenant(st, 0) {
		s.nRejected.Add(1)
		conn.SetWriteDeadline(time.Now().Add(time.Second))
		w.Error(maxClientsMsg)
		w.Flush()
		return
	}
	r := resp.NewReaderLimits(conn, s.cfg.Limits)
	for {
		// Arm the idle/read deadline — except while draining, when the
		// immediate deadline Shutdown installed must stay in force.
		if s.cfg.ReadTimeout > 0 && !s.draining.Load() {
			conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		args, err := r.ReadCommand()
		if err != nil {
			if resp.IsProtocol(err) {
				// Malformed frame: the parser resynchronized, the
				// session continues — one error reply per bad frame.
				w.Error(err.Error())
				if r.Buffered() == 0 && s.flush(conn, w) != nil {
					return
				}
				continue
			}
			if isTimeout(err) && !s.draining.Load() {
				// Slow or idle client: reclaim the connection. The
				// write side still works, so pending replies flush.
				s.nSlowEvicted.Add(1)
				s.logf("cpacached evicting slow client %s: no command in %v", conn.RemoteAddr(), s.cfg.ReadTimeout)
			}
			// EOF, client reset, eviction, or the drain deadline: flush
			// whatever replies are pending and close.
			s.flush(conn, w)
			return
		}
		s.nCommands.Add(1)
		s.dispatch(st, w, args)
		// Flush-on-idle: within a pipelined burst the replies stay
		// buffered; the last command of the burst pays the one write.
		if r.Buffered() == 0 {
			if s.flush(conn, w) != nil {
				return
			}
		}
		if st.quit {
			return
		}
	}
}

// commandName uppercases args[0] in place (command words are ASCII) and
// returns it as a string. The in-place mutation is safe: the parser
// allocated the slice for this command alone.
func commandName(arg []byte) string {
	for i, c := range arg {
		if 'a' <= c && c <= 'z' {
			arg[i] = c - 'a' + 'A'
		}
	}
	return string(arg)
}

func (s *Server) dispatch(st *connState, w *resp.Writer, args [][]byte) {
	cmd := commandName(args[0])
	switch cmd {
	case "PING":
		if len(args) > 1 {
			w.Bulk(args[1])
		} else {
			w.SimpleString("PONG")
		}
		return
	case "QUIT":
		w.SimpleString("OK")
		st.quit = true
		return
	case "COMMAND":
		// redis-cli probes COMMAND DOCS on connect; an empty array
		// satisfies it without implementing introspection.
		w.ArrayHeader(0)
		return
	case "AUTH":
		s.cmdAuth(st, w, args)
		return
	}
	if !st.authed {
		w.Error("NOAUTH Authentication required.")
		return
	}
	// Token-bucket admission: one op token plus the command's payload
	// bytes, charged to the connection's tenant. INFO and CONFIG are
	// exempt — monitoring an overloaded tenant must keep working.
	if s.limits != nil && cmd != "INFO" && cmd != "CONFIG" {
		if !s.limits[st.tenant].admit(time.Now().UnixNano(), argsBytes(args)) {
			s.nRateLimited.Add(1)
			w.Error("BUSY rate limit exceeded, retry later")
			return
		}
	}
	// Memory-pressure gate: at or above the high watermark, writes are
	// refused the way redis refuses them at maxmemory, while reads,
	// deletes, TTL management and monitoring keep working — deletes and
	// expiry are exactly what drains the pressure.
	if (cmd == "SET" || cmd == "MSET") && s.cache.Pressure() == cpacache.PressureOOM {
		s.nOOMRejected.Add(1)
		w.Error(oomMsg)
		return
	}
	switch cmd {
	case "GET":
		s.cmdGet(st, w, args)
	case "SET":
		s.cmdSet(st, w, args)
	case "MGET":
		s.cmdMGet(st, w, args)
	case "MSET":
		s.cmdMSet(st, w, args)
	case "DEL":
		s.cmdDel(w, args)
	case "EXISTS":
		s.cmdExists(w, args)
	case "TTL":
		s.cmdTTL(w, args, time.Second)
	case "PTTL":
		s.cmdTTL(w, args, time.Millisecond)
	case "EXPIRE":
		s.cmdExpire(w, args, time.Second)
	case "PEXPIRE":
		s.cmdExpire(w, args, time.Millisecond)
	case "PERSIST":
		s.cmdPersist(w, args)
	case "CONFIG":
		s.cmdConfig(w, args)
	case "INFO":
		w.BulkString(s.infoText())
	case "DEBUG":
		s.cmdDebug(w, args)
	default:
		w.Error(fmt.Sprintf("ERR unknown command '%s'", cmd))
	}
}

func wrongArity(w *resp.Writer, cmd string) {
	w.Error(fmt.Sprintf("ERR wrong number of arguments for '%s' command", cmd))
}

func (s *Server) cmdAuth(st *connState, w *resp.Writer, args [][]byte) {
	if len(args) != 2 {
		wrongArity(w, "auth")
		return
	}
	if !s.gate {
		w.Error("ERR Client sent AUTH, but no password is set")
		return
	}
	tenant, ok := s.auth[string(args[1])]
	if !ok {
		w.Error("WRONGPASS invalid password")
		return
	}
	if !st.bound || st.tenant != tenant {
		if st.bound {
			s.tenantConns[st.tenant].Add(-1)
			st.bound = false
		}
		if !s.bindTenant(st, tenant) {
			// The tenant's connection cap is full: refuse the binding
			// and end the session so the slot is not half-claimed.
			s.nRejected.Add(1)
			w.Error(maxClientsMsg)
			st.authed = false
			st.quit = true
			return
		}
	}
	st.tenant = tenant
	st.authed = true
	w.SimpleString("OK")
}

// cmdDebug implements the redis DEBUG subcommands the robustness suite
// leans on: PANIC panics the connection's goroutine — proving the
// panic bulkhead end-to-end against a live server — and SLEEP stalls
// the handler to simulate a slow command.
func (s *Server) cmdDebug(w *resp.Writer, args [][]byte) {
	if len(args) < 2 {
		wrongArity(w, "debug")
		return
	}
	switch sub := commandName(args[1]); sub {
	case "PANIC":
		panic("DEBUG PANIC requested by client")
	case "SLEEP":
		if len(args) != 3 {
			wrongArity(w, "debug|sleep")
			return
		}
		secs, err := strconv.ParseFloat(string(args[2]), 64)
		if err != nil || secs < 0 || secs > 60 {
			w.Error("ERR invalid sleep time")
			return
		}
		time.Sleep(time.Duration(secs * float64(time.Second)))
		w.SimpleString("OK")
	default:
		w.Error(fmt.Sprintf("ERR DEBUG %s is not supported", sub))
	}
}

func (s *Server) cmdGet(st *connState, w *resp.Writer, args [][]byte) {
	if len(args) != 2 {
		wrongArity(w, "get")
		return
	}
	if v, ok := s.cache.GetTenant(st.tenant, string(args[1])); ok {
		w.Bulk(v)
	} else {
		w.Null()
	}
}

func (s *Server) cmdSet(st *connState, w *resp.Writer, args [][]byte) {
	if len(args) < 3 {
		wrongArity(w, "set")
		return
	}
	key, val := string(args[1]), args[2]
	ttl := time.Duration(0)
	haveTTL := false
	for i := 3; i < len(args); i++ {
		opt := commandName(args[i])
		switch opt {
		case "EX", "PX":
			if haveTTL || i+1 >= len(args) {
				w.Error("ERR syntax error")
				return
			}
			n, err := strconv.ParseInt(string(args[i+1]), 10, 64)
			if err != nil || n <= 0 {
				w.Error("ERR invalid expire time in 'set' command")
				return
			}
			if opt == "EX" {
				ttl = time.Duration(n) * time.Second
			} else {
				ttl = time.Duration(n) * time.Millisecond
			}
			haveTTL = true
			i++
		default:
			w.Error("ERR syntax error")
			return
		}
	}
	var err error
	if haveTTL {
		err = s.cache.SetTenantTTL(st.tenant, key, val, ttl)
	} else {
		err = s.cache.SetTenant(st.tenant, key, val)
	}
	if err != nil {
		// The only insert error is an entry too large for its budget or
		// the global cap: no amount of eviction can admit it.
		s.nOOMRejected.Add(1)
		w.Error(oomMsg)
		return
	}
	w.SimpleString("OK")
}

func (s *Server) cmdMGet(st *connState, w *resp.Writer, args [][]byte) {
	if len(args) < 2 {
		wrongArity(w, "mget")
		return
	}
	n := len(args) - 1
	st.keys = st.keys[:0]
	for _, a := range args[1:] {
		st.keys = append(st.keys, string(a))
	}
	if cap(st.vals) < n {
		st.vals = make([][]byte, n)
		st.oks = make([]bool, n)
	}
	vals, oks := st.vals[:n], st.oks[:n]
	s.cache.GetBatch(st.tenant, st.keys, vals, oks)
	w.ArrayHeader(n)
	for i := range oks {
		if oks[i] {
			w.Bulk(vals[i])
		} else {
			w.Null()
		}
		vals[i] = nil // drop the value reference from the scratch
	}
	clearStrings(st.keys)
}

func (s *Server) cmdMSet(st *connState, w *resp.Writer, args [][]byte) {
	if len(args) < 3 || len(args)%2 != 1 {
		wrongArity(w, "mset")
		return
	}
	n := (len(args) - 1) / 2
	st.keys = st.keys[:0]
	if cap(st.vals) < n {
		st.vals = make([][]byte, n)
		st.oks = make([]bool, n)
	}
	vals := st.vals[:n]
	for i := 0; i < n; i++ {
		st.keys = append(st.keys, string(args[1+2*i]))
		vals[i] = args[2+2*i]
	}
	err := s.cache.SetBatch(st.tenant, st.keys, vals)
	clear(vals)
	clearStrings(st.keys)
	if err != nil {
		// Oversized pairs were skipped; the admissible rest of the batch
		// is applied, matching per-key SET semantics.
		s.nOOMRejected.Add(1)
		w.Error(oomMsg)
		return
	}
	w.SimpleString("OK")
}

// clearStrings drops the string references held by a scratch slice so a
// pooled session does not pin freed keys.
func clearStrings(ss []string) {
	for i := range ss {
		ss[i] = ""
	}
}

// cmdConfig answers the CONFIG GET parameters that redis load
// generators (memtier_benchmark, redis-benchmark) and clients probe on
// connect. maxmemory reports the real -max-bytes cap and
// maxmemory-policy the real write-pressure behavior — allkeys-lru when
// the cap evicts on write, noeviction when the server is uncapped —
// so a tool's capacity planning sees the truth instead of "0" (the old
// stub's answer, which read as "unlimited" on a capped server). save
// and appendonly keep their "no persistence" stubs. Unmatched
// parameters get an empty array, as redis replies for unknown names;
// every other CONFIG subcommand is refused — the server's real
// configuration surface is its process flags.
func (s *Server) cmdConfig(w *resp.Writer, args [][]byte) {
	if len(args) < 2 {
		wrongArity(w, "config")
		return
	}
	if sub := commandName(args[1]); sub != "GET" {
		w.Error(fmt.Sprintf("ERR CONFIG %s is not supported", sub))
		return
	}
	if len(args) != 3 {
		wrongArity(w, "config|get")
		return
	}
	policy := "noeviction"
	if s.cache.MaxBytes() > 0 {
		policy = "allkeys-lru"
	}
	stub := [...][2]string{
		{"maxmemory", strconv.FormatUint(s.cache.MaxBytes(), 10)},
		{"maxmemory-policy", policy},
		{"save", ""},
		{"appendonly", "no"},
	}
	pattern := strings.ToLower(string(args[2]))
	matched := make([][2]string, 0, len(stub))
	for _, kv := range stub {
		if pattern == "*" || pattern == kv[0] {
			matched = append(matched, kv)
		}
	}
	w.ArrayHeader(2 * len(matched))
	for _, kv := range matched {
		w.BulkString(kv[0])
		w.BulkString(kv[1])
	}
}

func (s *Server) cmdDel(w *resp.Writer, args [][]byte) {
	if len(args) < 2 {
		wrongArity(w, "del")
		return
	}
	n := int64(0)
	for _, a := range args[1:] {
		if s.cache.Delete(string(a)) {
			n++
		}
	}
	w.Int(n)
}

func (s *Server) cmdExists(w *resp.Writer, args [][]byte) {
	if len(args) < 2 {
		wrongArity(w, "exists")
		return
	}
	n := int64(0)
	for _, a := range args[1:] {
		if _, _, present := s.cache.TTL(string(a)); present {
			n++
		}
	}
	w.Int(n)
}

// cmdTTL implements TTL (unit = time.Second) and PTTL (time.Millisecond)
// with redis's reply convention: -2 when the key is absent, -1 when it
// has no deadline, else the remaining time rounded up to the unit (so a
// freshly SET ... EX 1 reports 1, not 0).
func (s *Server) cmdTTL(w *resp.Writer, args [][]byte, unit time.Duration) {
	if len(args) != 2 {
		wrongArity(w, "ttl")
		return
	}
	remaining, hasTTL, present := s.cache.TTL(string(args[1]))
	switch {
	case !present:
		w.Int(-2)
	case !hasTTL:
		w.Int(-1)
	default:
		w.Int(int64((remaining + unit - 1) / unit))
	}
}

// maxTTL caps client-supplied expire times: far enough out to mean
// "never" (≈100 years), small enough that now + ttl cannot overflow the
// cache clock's int64 nanoseconds.
const maxTTL = 100 * 365 * 24 * time.Hour

// cmdExpire implements EXPIRE (unit = time.Second) and PEXPIRE
// (time.Millisecond): 1 when the deadline was set, 0 when the key is
// absent (or already lapsed). A non-positive timeout deletes the key as
// redis does — here by arming an already-lapsed deadline, so the line
// dies through the normal expiry path and is counted as an expiration.
func (s *Server) cmdExpire(w *resp.Writer, args [][]byte, unit time.Duration) {
	if len(args) != 3 {
		wrongArity(w, "expire")
		return
	}
	n, err := strconv.ParseInt(string(args[2]), 10, 64)
	if err != nil {
		w.Error("ERR value is not an integer or out of range")
		return
	}
	var ttl time.Duration
	switch {
	case n <= 0:
		ttl = -time.Nanosecond
	case n > int64(maxTTL/unit):
		ttl = maxTTL
	default:
		ttl = time.Duration(n) * unit
	}
	if s.cache.SetTTL(string(args[1]), ttl) {
		w.Int(1)
	} else {
		w.Int(0)
	}
}

// cmdPersist implements PERSIST: 1 when a deadline was removed, 0 when
// the key is absent or carried none.
func (s *Server) cmdPersist(w *resp.Writer, args [][]byte) {
	if len(args) != 2 {
		wrongArity(w, "persist")
		return
	}
	key := string(args[1])
	if _, hasTTL, present := s.cache.TTL(key); !present || !hasTTL {
		w.Int(0)
		return
	}
	if s.cache.SetTTL(key, 0) {
		w.Int(1)
	} else {
		w.Int(0) // lapsed between the probe and the pin
	}
}

// infoText renders the INFO reply from a cache Snapshot: redis-style
// "# Section" headers with key:value lines, one frame of coherent
// counters per call.
func (s *Server) infoText() string {
	snap := s.cache.Snapshot()
	s.mu.Lock()
	open := len(s.conns)
	started := s.startedAt
	s.mu.Unlock()
	uptime := time.Duration(0)
	if !started.IsZero() {
		uptime = time.Since(started)
	}

	var b []byte
	line := func(format string, args ...any) {
		b = fmt.Appendf(b, format, args...)
		b = append(b, '\r', '\n')
	}
	line("# Server")
	line("uptime_seconds:%d", int64(uptime.Seconds()))
	line("connected_clients:%d", open)
	line("total_connections_received:%d", s.nConns.Load())
	line("total_commands_processed:%d", s.nCommands.Load())
	line("rejected_connections:%d", s.nRejected.Load())
	line("rate_limited_ops:%d", s.nRateLimited.Load())
	line("slow_client_evictions:%d", s.nSlowEvicted.Load())
	line("panics_recovered:%d", s.nPanics.Load())
	line("accept_errors:%d", s.nAcceptErrors.Load())
	line("")
	line("# Cache")
	line("policy:%s", s.cfg.Policy)
	line("policy_autoselect:%d", boolBit(s.cfg.PolicyAutoSelect))
	line("policy_switches:%d", snap.PolicySwitches)
	line("shards:%d", s.cfg.Shards)
	line("sets_per_shard:%d", s.cfg.Sets)
	line("ways:%d", s.cfg.Ways)
	line("entries:%d", snap.Len)
	line("capacity:%d", snap.Capacity)
	line("rebalances:%d", snap.Rebalances)
	line("rebalances_skipped:%d", snap.RebalancesSkipped)
	line("sweep_expired:%d", snap.SweepExpired)
	line("sweep_skipped:%d", snap.SweepSkipped)
	line("")
	line("# Memory")
	line("used_memory:%d", snap.UsedBytes)
	line("maxmemory:%d", snap.MaxBytes)
	line("evicted_bytes:%d", snap.BudgetEvictedBytes)
	line("oom_rejected_ops:%d", s.nOOMRejected.Load())
	line("pressure_state:%s", snap.Pressure)
	line("")
	line("# Tenants")
	for t, ts := range snap.Tenants {
		budget := uint64(0)
		if snap.Budgets != nil {
			budget = snap.Budgets[t]
		}
		line("tenant%d:name=%s,policy=%s,ways=%d,budget_bytes=%d,hits=%d,misses=%d,hit_rate=%.4f,evictions=%d,budget_evictions=%d,expirations=%d,bytes=%d",
			t, s.names[t], snap.Policies[t], snap.Quotas[t], budget,
			ts.Hits, ts.Misses, ts.HitRate(), ts.Evictions, ts.BudgetEvictions, ts.Expirations, ts.Bytes)
	}
	return string(b)
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}
