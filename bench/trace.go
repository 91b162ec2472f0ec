package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval: a name, start and end, the span that caused
// it, and how many operations it covers. Spans of one pipelined batch
// share its batch id.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	id, parent int
	batch      int
	ops        int
}

// tracer collects spans in memory and writes them once, at exit. All
// spans are recorded by the benchmark around its own calls into the
// layers; no layer knows it is traced.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	threads []*spanBuf
}

// spanBuf is one goroutine's private span list, so recording takes no
// lock.
type spanBuf struct {
	tr    *tracer
	tid   int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// thread registers a new recording goroutine.
func (t *tracer) thread() *spanBuf {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &spanBuf{tr: t, tid: len(t.threads) + 1}
	t.threads = append(t.threads, b)
	return b
}

// add records a finished span and returns its id. Ids are unique across
// threads: the thread id sits above bit 32.
func (b *spanBuf) add(name string, start, end time.Time, parent, batch, ops int) int {
	id := b.tid<<32 | (len(b.spans) + 1)
	b.spans = append(b.spans, span{name, start.Sub(b.tr.epoch), end.Sub(b.tr.epoch), id, parent, batch, ops})
	return id
}

// begin opens a span that will parent others and returns its id; end
// closes it.
func (b *spanBuf) begin(name string) int {
	now := time.Now()
	return b.add(name, now, now, 0, 0, 0)
}

func (b *spanBuf) end(id, ops int) {
	s := &b.spans[id&(1<<32-1)-1]
	s.end, s.ops = time.Since(b.tr.epoch), ops
}

// blockSize is how many calls into a layer one span of a replay covers.
const blockSize = 1024

// blocks calls fn on [0,n) in blocks of blockSize, records one span per
// block under parent, and returns the spans' total time. A per-layer
// number is that time over n: span time over span op count.
func (b *spanBuf) blocks(name string, parent, n int, fn func(lo, hi int)) time.Duration {
	var total time.Duration
	for lo := 0; lo < n; lo += blockSize {
		hi := min(lo+blockSize, n)
		start := time.Now()
		fn(lo, hi)
		end := time.Now()
		b.add(name, start, end, parent, 0, hi-lo)
		total += end.Sub(start)
	}
	return total
}

// sum returns the total duration and op count of the thread's spans
// called name.
func (b *spanBuf) sum(name string) (time.Duration, int) {
	var d time.Duration
	var ops int
	for _, s := range b.spans {
		if s.name == name {
			d += s.end - s.start
			ops += s.ops
		}
	}
	return d, ops
}

// write renders every span as a Chrome trace-event "complete" event
// (chrome://tracing, ui.perfetto.dev): ts and dur in microseconds, one
// tid per recording goroutine, span identity in args.
func (t *tracer) write(path string) (n int, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for _, b := range t.threads {
		for _, s := range b.spans {
			if n > 0 {
				w.WriteByte(',')
			}
			n++
			fmt.Fprintf(w, "\n{\"name\":%q,\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"batch\":%d,\"ops\":%d}}",
				s.name, b.tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, s.parent, s.batch, s.ops)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}
