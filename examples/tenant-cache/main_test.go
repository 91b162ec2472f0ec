package main

import (
	"bytes"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"
)

// lockedBuffer serializes the demo's writes: the rebalance sink prints
// from the ticker's goroutine.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// hungryWaysRe captures the scanner's (tenant 0's) quota from the demo's
// "== interval N: ... quotas [a b c] ==" headers.
var hungryWaysRe = regexp.MustCompile(`== interval \d: [a-z -]+ quotas \[(\d+) `)

// TestDemoMovesWaysToHungryTenant runs the demo to completion and requires
// the ticker to have handed the hungry tenant more ways than the even
// split it started from.
func TestDemoMovesWaysToHungryTenant(t *testing.T) {
	var out lockedBuffer
	if err := runDemo(&out, 150*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	m := hungryWaysRe.FindAllStringSubmatch(out.String(), -1)
	if len(m) != 2 {
		t.Fatalf("want two quota headers, got %q in:\n%s", m, out.String())
	}
	before, _ := strconv.Atoi(m[0][1])
	after, _ := strconv.Atoi(m[1][1])
	if after <= before {
		t.Errorf("hungry tenant went from %d to %d ways:\n%s", before, after, out.String())
	}
}
