package main

import (
	"bytes"
	"net"
	"sync"
	"time"
)

// memListener is a net.Listener with no kernel under it: Accept hands out
// the connections pushed with serve, one at a time, so Server.Serve runs
// its real accept → parse → dispatch → encode path against scripted bytes.
type memListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newMemListener() *memListener {
	return &memListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr{} }

// serve hands the server one connection that reads exactly script and
// then EOF, waits until the server closes it, and returns the time from
// accept to close and the reply bytes the server wrote.
func (l *memListener) serve(script []byte) (time.Duration, int64) {
	c := &memConn{r: bytes.NewReader(script), done: make(chan struct{})}
	start := time.Now()
	l.conns <- c
	<-c.done
	return c.closedAt.Sub(start), c.written
}

// memConn reads a script and discards writes.
type memConn struct {
	r        *bytes.Reader
	written  int64
	done     chan struct{}
	once     sync.Once
	closedAt time.Time
}

func (c *memConn) Read(p []byte) (int, error) { return c.r.Read(p) }

func (c *memConn) Write(p []byte) (int, error) {
	c.written += int64(len(p))
	return len(p), nil
}

func (c *memConn) Close() error {
	c.once.Do(func() {
		c.closedAt = time.Now()
		close(c.done)
	})
	return nil
}

func (c *memConn) LocalAddr() net.Addr              { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr             { return memAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }
