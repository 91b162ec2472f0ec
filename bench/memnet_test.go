package main

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"

	"repro/internal/server"
)

func TestMemConnDeliversExactlyTheScript(t *testing.T) {
	ln := newMemListener()
	script := bytes.Repeat([]byte("0123456789abcdef"), 5000) // larger than any one Read
	got := make(chan []byte)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			t.Error(err)
			close(got)
			return
		}
		var all []byte
		buf := make([]byte, 999)
		for {
			n, err := c.Read(buf)
			all = append(all, buf[:n]...)
			if err != nil {
				if err != io.EOF {
					t.Errorf("read: %v", err)
				}
				break
			}
		}
		c.Write([]byte("four"))
		c.Write([]byte("teen bytes"))
		c.Close()
		c.Close() // a second Close is harmless
		got <- all
	}()
	dur, written := ln.serve(script)
	if all := <-got; !bytes.Equal(all, script) {
		t.Errorf("the connection delivered %d bytes, the script has %d", len(all), len(script))
	}
	if written != 14 || dur <= 0 {
		t.Errorf("serve reported %d bytes written in %v", written, dur)
	}
	ln.Close()
	ln.Close()
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Accept on a closed listener: %v", err)
	}
}

// The real server runs on the in-memory listener: it answers the script
// and closes the connection at its EOF.
func TestServerServesAScriptInProcess(t *testing.T) {
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln := newMemListener()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	script := strings.Repeat("*1\r\n$4\r\nPING\r\n", 3) + "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n" + "*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"
	_, written := ln.serve([]byte(script))
	if want := int64(len("+PONG\r\n+PONG\r\n+PONG\r\n+OK\r\n$1\r\nv\r\n")); written != want {
		t.Errorf("the server wrote %d reply bytes, want %d", written, want)
	}
	if v, ok := srv.Cache().Get("k"); !ok || string(v) != "v" {
		t.Errorf("the SET did not reach the cache: %q %v", v, ok)
	}
	if err := srv.Shutdown(t.Context()); err != nil {
		t.Error(err)
	}
	if err := <-served; err != nil {
		t.Errorf("Serve returned %v", err)
	}
}
