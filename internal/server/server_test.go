package server

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/resp"
	"repro/pkg/plru"
)

// startServer boots a server on a random port and returns it with a
// cleanup that drains it.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	// Wait until the Serve goroutine has registered the listener so a
	// Shutdown in cleanup can't beat it to the draining flag.
	for deadline := time.Now().Add(5 * time.Second); s.Addr() == nil; {
		if time.Now().After(deadline) {
			t.Fatal("Serve never registered its listener")
		}
		time.Sleep(time.Millisecond)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("Serve returned %v after drain, want nil", err)
		}
	})
	return s
}

// client is a test RESP client over one TCP connection.
type client struct {
	t    *testing.T
	conn net.Conn
	r    *resp.Reader
	w    *resp.Writer
}

func dial(t *testing.T, s *Server) *client {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{t: t, conn: conn, r: resp.NewReader(conn), w: resp.NewWriter(conn)}
}

// do sends one command and reads one reply.
func (c *client) do(args ...string) resp.Reply {
	c.t.Helper()
	c.w.WriteCommandString(args...)
	if err := c.w.Flush(); err != nil {
		c.t.Fatal(err)
	}
	rep, err := c.r.ReadReply()
	if err != nil {
		c.t.Fatalf("reading reply to %v: %v", args, err)
	}
	return rep
}

func (c *client) expectSimple(want string, args ...string) {
	c.t.Helper()
	rep := c.do(args...)
	if rep.Kind != resp.KindSimple || string(rep.Str) != want {
		c.t.Fatalf("%v => %+v, want +%s", args, rep, want)
	}
}

func (c *client) expectBulk(want string, args ...string) {
	c.t.Helper()
	rep := c.do(args...)
	if rep.Kind != resp.KindBulk || rep.Null || string(rep.Str) != want {
		c.t.Fatalf("%v => %+v, want bulk %q", args, rep, want)
	}
}

func (c *client) expectNull(args ...string) {
	c.t.Helper()
	rep := c.do(args...)
	if !rep.Null {
		c.t.Fatalf("%v => %+v, want null", args, rep)
	}
}

func (c *client) expectInt(want int64, args ...string) {
	c.t.Helper()
	rep := c.do(args...)
	if rep.Kind != resp.KindInt || rep.Int != want {
		c.t.Fatalf("%v => %+v, want :%d", args, rep, want)
	}
}

func (c *client) expectErrPrefix(prefix string, args ...string) {
	c.t.Helper()
	rep := c.do(args...)
	if !rep.IsErr() || !strings.HasPrefix(string(rep.Str), prefix) {
		c.t.Fatalf("%v => %+v, want error with prefix %q", args, rep, prefix)
	}
}

func TestServerBasicCommands(t *testing.T) {
	s := startServer(t, Config{Shards: 2, Sets: 64, Ways: 8, Policy: plru.LRU})
	c := dial(t, s)

	c.expectSimple("PONG", "PING")
	c.expectBulk("hello", "PING", "hello")
	c.expectNull("GET", "absent")
	c.expectSimple("OK", "SET", "k1", "v1")
	c.expectBulk("v1", "GET", "k1")
	c.expectSimple("OK", "set", "k1", "v2") // commands are case-insensitive
	c.expectBulk("v2", "GET", "k1")
	c.expectInt(1, "EXISTS", "k1")
	c.expectInt(0, "EXISTS", "nope")
	c.expectInt(-1, "TTL", "k1") // resident, no deadline
	c.expectInt(-2, "TTL", "nope")
	c.expectInt(1, "DEL", "k1", "nope")
	c.expectNull("GET", "k1")

	c.expectSimple("OK", "MSET", "a", "1", "b", "2", "c", "3")
	rep := c.do("MGET", "a", "missing", "c")
	if rep.Kind != resp.KindArray || len(rep.Array) != 3 {
		t.Fatalf("MGET => %+v", rep)
	}
	if string(rep.Array[0].Str) != "1" || !rep.Array[1].Null || string(rep.Array[2].Str) != "3" {
		t.Fatalf("MGET elements: %+v", rep.Array)
	}

	c.expectErrPrefix("ERR unknown command", "BOGUS")
	c.expectErrPrefix("ERR wrong number of arguments", "GET")
	c.expectErrPrefix("ERR wrong number of arguments", "MSET", "a", "1", "b")
	c.expectErrPrefix("ERR syntax error", "SET", "k", "v", "WAT")

	info := c.do("INFO")
	if info.Kind != resp.KindBulk {
		t.Fatalf("INFO => %+v", info)
	}
	text := string(info.Str)
	for _, want := range []string{"# Server", "# Cache", "# Tenants", "policy:LRU", "ways:8", "tenant0:name=default"} {
		if !strings.Contains(text, want) {
			t.Fatalf("INFO missing %q:\n%s", want, text)
		}
	}

	c.expectSimple("OK", "QUIT")
	if _, err := c.r.ReadReply(); err == nil {
		t.Fatal("connection still open after QUIT")
	}
}

func TestServerTTLCommands(t *testing.T) {
	s := startServer(t, Config{Shards: 1, Sets: 16, Ways: 4, Policy: plru.LRU})
	c := dial(t, s)

	c.expectSimple("OK", "SET", "k", "v", "EX", "100")
	rep := c.do("TTL", "k")
	if rep.Int < 99 || rep.Int > 100 {
		t.Fatalf("TTL after EX 100 = %d", rep.Int)
	}
	rep = c.do("PTTL", "k")
	if rep.Int < 99_000 || rep.Int > 100_000 {
		t.Fatalf("PTTL after EX 100 = %d", rep.Int)
	}

	c.expectSimple("OK", "SET", "gone", "v", "PX", "50")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if rep := c.do("GET", "gone"); rep.Null {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("PX 50 entry never expired")
		}
		time.Sleep(20 * time.Millisecond)
	}
	c.expectInt(-2, "TTL", "gone")

	c.expectErrPrefix("ERR invalid expire time", "SET", "k", "v", "EX", "0")
	c.expectErrPrefix("ERR invalid expire time", "SET", "k", "v", "PX", "-5")
	c.expectErrPrefix("ERR syntax error", "SET", "k", "v", "EX", "10", "PX", "10")
}

// TestServerPipelining sends a whole burst in one write — including a
// malformed frame mid-burst — and checks every reply comes back in
// order on a connection that stays usable.
func TestServerPipelining(t *testing.T) {
	s := startServer(t, Config{
		Shards: 1, Sets: 16, Ways: 4, Policy: plru.BT,
		Limits: resp.Limits{MaxBulkLen: 32},
	})
	c := dial(t, s)

	batch := "*3\r\n$3\r\nSET\r\n$1\r\na\r\n$1\r\n1\r\n" +
		"*2\r\n$3\r\nGET\r\n$1\r\na\r\n" +
		"*2\r\n$3\r\nGET\r\n$100\r\n" + strings.Repeat("x", 100) + "\r\n" + // over MaxBulkLen
		"*2\r\n$3\r\nGET\r\n$1\r\na\r\n" +
		"PING\r\n"
	if _, err := c.conn.Write([]byte(batch)); err != nil {
		t.Fatal(err)
	}
	if rep, err := c.r.ReadReply(); err != nil || string(rep.Str) != "OK" {
		t.Fatalf("reply 1: %+v %v", rep, err)
	}
	if rep, err := c.r.ReadReply(); err != nil || string(rep.Str) != "1" {
		t.Fatalf("reply 2: %+v %v", rep, err)
	}
	if rep, err := c.r.ReadReply(); err != nil || !rep.IsErr() || !strings.Contains(string(rep.Str), "exceeds limit") {
		t.Fatalf("reply 3 (oversized frame): %+v %v", rep, err)
	}
	if rep, err := c.r.ReadReply(); err != nil || string(rep.Str) != "1" {
		t.Fatalf("reply 4 (conn must survive the bad frame): %+v %v", rep, err)
	}
	if rep, err := c.r.ReadReply(); err != nil || string(rep.Str) != "PONG" {
		t.Fatalf("reply 5: %+v %v", rep, err)
	}
}

func TestServerAuthTenants(t *testing.T) {
	s := startServer(t, Config{
		Shards: 1, Sets: 64, Ways: 8, Policy: plru.LRU,
		Tenants: []TenantConfig{
			{Name: "gold", Password: "au", Ways: 6, Budget: 1 << 20},
			{Name: "lead", Password: "pb", Ways: 2},
		},
	})

	c := dial(t, s)
	c.expectErrPrefix("NOAUTH", "GET", "k")
	c.expectSimple("PONG", "PING") // PING allowed pre-auth
	c.expectErrPrefix("WRONGPASS", "AUTH", "wrong")
	c.expectSimple("OK", "AUTH", "au")
	c.expectSimple("OK", "SET", "shared", "gold-value")
	c.expectBulk("gold-value", "GET", "shared")

	c2 := dial(t, s)
	c2.expectSimple("OK", "AUTH", "pb")
	// Hits are global (the paper's design): lead reads gold's line.
	c2.expectBulk("gold-value", "GET", "shared")

	// The traffic must be accounted to the right tenants.
	stats := s.Cache().Stats()
	if stats[0].Hits == 0 || stats[1].Hits == 0 {
		t.Fatalf("per-tenant accounting missing: %+v", stats)
	}
	if got := s.Cache().Quotas(); got[0] != 6 || got[1] != 2 {
		t.Fatalf("quotas not installed: %v", got)
	}
	info := c.do("INFO")
	for _, want := range []string{"tenant0:name=gold,policy=LRU,ways=6,budget_bytes=1048576", "tenant1:name=lead,policy=LRU,ways=2"} {
		if !strings.Contains(string(info.Str), want) {
			t.Fatalf("INFO missing %q:\n%s", want, info.Str)
		}
	}
}

func TestServerConfigValidation(t *testing.T) {
	if _, err := New(Config{Tenants: []TenantConfig{{Name: "a", Password: "x"}, {Name: "b"}}}); err == nil {
		t.Fatal("missing password for tenant b not rejected")
	}
	if _, err := New(Config{Tenants: []TenantConfig{{Name: "a", Password: "x"}, {Name: "b", Password: "x"}}}); err == nil {
		t.Fatal("duplicate password not rejected")
	}
	if _, err := New(Config{Tenants: []TenantConfig{{Name: "a", Password: "x", Ways: 4}, {Name: "b", Password: "y"}}}); err == nil {
		t.Fatal("partial quotas not rejected")
	}
	if _, err := New(Config{Ways: 8, Tenants: []TenantConfig{{Name: "a", Password: "x", Ways: 4}, {Name: "b", Password: "y", Ways: 2}}}); err == nil {
		t.Fatal("quotas not summing to ways not rejected")
	}
}

// TestServerDrain checks the graceful path: a pipelined burst written
// just before Shutdown is fully answered, idle blocked connections are
// woken and closed, Serve returns nil.
func TestServerDrain(t *testing.T) {
	s, err := New(Config{Shards: 1, Sets: 16, Ways: 4, Policy: plru.LRU})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()

	idle, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	busy, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	burst := strings.Repeat("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n", 64) + "*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"
	if _, err := busy.Write([]byte(burst)); err != nil {
		t.Fatal(err)
	}
	// Flush-on-idle means the first reply only appears once the whole
	// burst has been parsed and answered; reading it here guarantees the
	// burst is in flight back to us before the drain starts.
	r := resp.NewReader(busy)
	if rep, err := r.ReadReply(); err != nil || string(rep.Str) != "OK" {
		t.Fatalf("burst reply 0: %+v %v", rep, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v after drain", err)
	}

	// Every reply of the in-flight burst must still arrive after the
	// drain: 63 more +OK then the bulk value.
	for i := 1; i < 64; i++ {
		rep, err := r.ReadReply()
		if err != nil || string(rep.Str) != "OK" {
			t.Fatalf("burst reply %d: %+v %v", i, rep, err)
		}
	}
	if rep, err := r.ReadReply(); err != nil || string(rep.Str) != "v" {
		t.Fatalf("final burst reply: %+v %v", rep, err)
	}

	// The idle connection must be closed (drain woke its reader).
	idle.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := resp.NewReader(idle).ReadReply(); err == nil {
		t.Fatal("idle connection still open after drain")
	}

	// Shutdown is idempotent; new Serves are refused.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	ln2, _ := net.Listen("tcp", "127.0.0.1:0")
	if err := s.Serve(ln2); err == nil {
		t.Fatal("Serve accepted a listener after shutdown")
	}
}

// TestServerConfigGetStub covers the CONFIG GET compatibility stub the
// standard redis load generators probe on connect.
func TestServerConfigGetStub(t *testing.T) {
	s := startServer(t, Config{Shards: 2, Sets: 64, Ways: 8, Policy: plru.LRU})
	c := dial(t, s)

	pairs := func(args ...string) map[string]string {
		t.Helper()
		rep := c.do(args...)
		if rep.Kind != resp.KindArray || len(rep.Array)%2 != 0 {
			t.Fatalf("%v => %+v, want flat key/value array", args, rep)
		}
		got := make(map[string]string, len(rep.Array)/2)
		for i := 0; i < len(rep.Array); i += 2 {
			got[string(rep.Array[i].Str)] = string(rep.Array[i+1].Str)
		}
		return got
	}
	if got := pairs("CONFIG", "GET", "maxmemory"); len(got) != 1 || got["maxmemory"] != "0" {
		t.Fatalf("CONFIG GET maxmemory = %v, want {maxmemory: 0} on an uncapped server", got)
	}
	if got := pairs("CONFIG", "GET", "maxmemory-policy"); len(got) != 1 || got["maxmemory-policy"] != "noeviction" {
		t.Fatalf("CONFIG GET maxmemory-policy = %v, want noeviction on an uncapped server", got)
	}
	if got := pairs("config", "get", "SAVE"); len(got) != 1 || got["save"] != "" {
		t.Fatalf("CONFIG GET save = %v, want {save: \"\"}", got)
	}
	if got := pairs("CONFIG", "GET", "appendonly"); len(got) != 1 || got["appendonly"] != "no" {
		t.Fatalf("CONFIG GET appendonly = %v, want {appendonly: no}", got)
	}
	if got := pairs("CONFIG", "GET", "*"); len(got) != 4 {
		t.Fatalf("CONFIG GET * = %v, want all four stubbed parameters", got)
	}
	if got := pairs("CONFIG", "GET", "maxclients"); len(got) != 0 {
		t.Fatalf("CONFIG GET maxclients = %v, want empty array for unknown parameter", got)
	}
	c.expectErrPrefix("ERR CONFIG SET is not supported", "CONFIG", "SET", "maxmemory", "100")
	c.expectErrPrefix("ERR wrong number of arguments", "CONFIG")
	c.expectErrPrefix("ERR wrong number of arguments", "CONFIG", "GET")
}

// TestServerInfoTenantPolicies pins INFO's policy surface: the
// configured base policy, the auto-select bit, the switch counter, and
// one policy=<kind> field per tenant line.
func TestServerInfoTenantPolicies(t *testing.T) {
	s := startServer(t, Config{
		Shards: 2, Sets: 64, Ways: 8, Policy: plru.LRU,
		PolicyAutoSelect: true,
		Tenants: []TenantConfig{
			{Name: "gold", Password: "g"},
			{Name: "lead", Password: "l"},
		},
	})
	c := dial(t, s)
	c.expectSimple("OK", "AUTH", "g")
	rep := c.do("INFO")
	if rep.Kind != resp.KindBulk {
		t.Fatalf("INFO => %+v, want bulk", rep)
	}
	info := string(rep.Str)
	for _, want := range []string{
		"policy:LRU",
		"policy_autoselect:1",
		"policy_switches:0",
		"tenant0:name=gold,policy=LRU,",
		"tenant1:name=lead,policy=LRU,",
	} {
		if !strings.Contains(info, want) {
			t.Fatalf("INFO missing %q:\n%s", want, info)
		}
	}
}
