package cpu

import (
	"encoding/binary"
	"reflect"
	"sync"
	"sync/atomic"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/trace"
)

// Tape is one core's private half: its generator, its L1 and its branch
// predictor. None of the three ever reads the shared L2, and the L2 never
// back-invalidates the L1, so what they do is a pure function of (profile,
// core id, seed, L1) and can be recorded once and replayed by any number
// of Cores — one per configuration the core runs in. The tape records its
// events a chunk at a time; chunks every reader has passed are reused.
//
// Who records depends on how many readers share the tape. A lone reader
// records inline, when it runs out of events, so a tape nobody shares
// starts no goroutine and needs nobody to stop one. A tape with several
// readers can hand its recording to a goroutine of its own (Prerecord),
// which fills the chunk after the most advanced reader's while the
// readers replay, and never runs further ahead than that. Either way the
// tape holds the same events in the same chunks.
//
// Several readers may replay a tape from different goroutines. Taking a
// chunk, linking it and recycling it are serialized by the tape's lock;
// filling it is not, as only one party ever fills (the recorder, or else
// a reader holding the lock). A chunk is immutable from the moment it is
// linked until every reader has passed it.
type Tape struct {
	id    int
	prof  trace.Profile
	seed  uint64
	l1cfg cache.Config

	// The filler's state, built by the first fill.
	gen *trace.Generator
	l1  *cache.Cache
	bp  *bpred.Predictor

	mu     sync.Mutex
	linked sync.Cond // a chunk was linked, or the recorder stopped
	wanted sync.Cond // a reader reached a new chunk, or the recorder must stop

	head    *chunk   // the oldest chunk a reader may still be on
	tail    *chunk   // the newest chunk linked
	free    []*chunk // passed by every reader, ready for reuse
	readers []*Core

	recording bool // a recorder goroutine fills the chunks
	stopping  bool // and has been told to stop

	seq      uint64 // chunks taken so far
	lead     uint64 // the furthest chunk a reader has reached
	produced uint64 // events in the chunks up to lead
	inline   uint64 // chunks a reader filled itself
	bytes    int    // chunk buffers allocated
}

// chunkBytes is a chunk's capacity. A chunk ends when one more event
// might not fit: its byte, a long instruction count, the missing address
// and the dirty victim.
const (
	chunkBytes = 4096
	maxEvent   = 1 + 4 + 8 + 8
)

// lookahead is how many chunks a recorder links past the furthest chunk a
// reader has reached. One lets it fill while the readers replay; more
// timed the same and holds more memory.
const lookahead = 1

// testHookNewTape, when set, is passed every tape NewTape builds.
var testHookNewTape func(*Tape)

// chunk is a run of recorded events. Each event is one byte, its kind in
// the low three bits and its instruction count in the high five, 0
// meaning the count did not fit and follows as four bytes. An L1 miss then
// adds the missing address and, when the victim was dirty, the victim's
// line address, eight bytes each, little-endian.
type chunk struct {
	seq    uint64
	events uint64
	buf    []byte
	next   atomic.Pointer[chunk]
}

// Event kinds. The four L1-miss kinds are the bit pair missWrite|missDirty.
const (
	missWrite    = 1 // the missing access is a store
	missDirty    = 2 // the L1 evicted a dirty line for it
	evHit        = 4 // L1 hit
	evBranch     = 5 // branch, predicted
	evMispredict = 6 // branch, direction mispredicted
	evBTBMiss    = 7 // branch, taken but missing in the BTB

	kindBits = 3
	kindMask = 1<<kindBits - 1
	maxShort = 1<<(8-kindBits) - 1 // largest instruction count kept in the event byte
)

// NewTape returns the private half of core id running prof from seed with
// a private L1 built from l1cfg. It panics on an invalid profile, as the
// generator does.
func NewTape(id int, prof trace.Profile, seed uint64, l1cfg cache.Config) *Tape {
	if err := prof.Validate(); err != nil {
		panic(err)
	}
	t := &Tape{id: id, prof: prof, seed: seed, l1cfg: l1cfg, head: &chunk{}}
	t.tail = t.head
	t.linked.L, t.wanted.L = &t.mu, &t.mu
	if testHookNewTape != nil {
		testHookNewTape(t)
	}
	return t
}

// Interchangeable reports whether t and o record the same events: the same
// core id, profile, seed and L1.
func (t *Tape) Interchangeable(o *Tape) bool {
	return t.id == o.id && t.seed == o.seed && t.l1cfg == o.l1cfg && reflect.DeepEqual(t.prof, o.prof)
}

// Produced reports how many events the tape has recorded in the chunks
// its readers reached. A chunk a recorder filled ahead of them does not
// count, so the figure is the same however far ahead the recorder was.
func (t *Tape) Produced() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.produced
}

// Bytes reports the chunk memory the tape has allocated: the most it has
// ever held, since chunks are reused and never given back.
func (t *Tape) Bytes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytes
}

// Recycle makes the chunks every reader has passed available for reuse.
// A tape with one reader recycles as that reader goes; one with several
// needs Recycle, at a moment when none of them is running.
func (t *Tape) Recycle() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.readers) == 0 {
		return
	}
	oldest := t.readers[0].ch
	for _, r := range t.readers[1:] {
		if r.ch.seq < oldest.seq {
			oldest = r.ch
		}
	}
	t.releaseTo(oldest)
}

// releaseTo frees every chunk in front of c. The caller holds t.mu.
func (t *Tape) releaseTo(c *chunk) {
	for t.head != c {
		t.free = append(t.free, t.head)
		t.head = t.head.next.Load()
	}
}

// attach registers r as a reader starting at the tape's first event.
func (t *Tape) attach(r *Core) *chunk {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.head.seq != 0 {
		panic("cpu: tape already recycled its first events")
	}
	t.readers = append(t.readers, r)
	return t.head
}

// detach removes r from the readers.
func (t *Tape) detach(r *Core) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, x := range t.readers {
		if x == r {
			t.readers = append(t.readers[:i], t.readers[i+1:]...)
			return
		}
	}
}

// next returns the chunk after r's. When nobody has linked it yet, a
// tape with a recorder waits for it, and one without has r record it.
func (t *Tape) next(r *Core) *chunk {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := r.ch.next.Load()
	for n == nil {
		if t.recording {
			t.linked.Wait()
		} else {
			c := t.take()
			t.fill(c)
			t.inline++
			t.link(c)
		}
		n = r.ch.next.Load()
	}
	if n.seq > t.lead {
		t.lead = n.seq
		t.produced += n.events
		t.wanted.Signal()
	}
	if len(t.readers) == 1 && t.readers[0] == r {
		t.releaseTo(n)
	}
	return n
}

// Prerecord hands the recording of a tape with two readers or more to a
// goroutine of its own and returns a function that stops it and waits for
// it to exit; stop may be called more than once. The goroutine fills the
// chunk after the furthest one a reader has reached while the readers
// replay, so a reader never records and waits only at the frontier. With
// fewer than two readers Prerecord does nothing, and the reader records
// inline, as readers do again once the recorder has stopped.
func (t *Tape) Prerecord() (stop func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.readers) < 2 || t.recording {
		return func() {}
	}
	t.recording, t.stopping = true, false
	done := make(chan struct{})
	go t.recordAhead(done)
	return sync.OnceFunc(func() {
		t.mu.Lock()
		t.stopping = true
		t.wanted.Signal()
		t.mu.Unlock()
		<-done
	})
}

// recordAhead is the recorder goroutine: it keeps lookahead chunks linked
// past the furthest chunk a reader has reached until it is told to stop.
// It fills outside the lock, so readers whose next chunk is linked never
// wait for it.
func (t *Tape) recordAhead(done chan<- struct{}) {
	defer close(done)
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		for !t.stopping && t.tail.seq >= t.lead+lookahead {
			t.wanted.Wait()
		}
		if t.stopping {
			t.recording = false
			t.linked.Broadcast()
			return
		}
		c := t.take()
		t.mu.Unlock()
		t.fill(c)
		t.mu.Lock()
		t.link(c)
	}
}

// take returns an empty chunk, reusing a free one if there is one, and
// numbers it. The caller holds t.mu.
func (t *Tape) take() *chunk {
	var c *chunk
	if n := len(t.free); n > 0 {
		c, t.free = t.free[n-1], t.free[:n-1]
		c.next.Store(nil)
	} else {
		c = &chunk{}
	}
	if c.buf == nil {
		c.buf = make([]byte, 0, chunkBytes)
		t.bytes += chunkBytes
	}
	t.seq++
	c.seq = t.seq
	return c
}

// link appends a filled chunk to the tape and wakes the readers waiting
// for it. The caller holds t.mu.
func (t *Tape) link(c *chunk) {
	t.tail.next.Store(c) // publishes c's contents to the readers
	t.tail = c
	t.linked.Broadcast()
}

// fill records the next events of the private half into c, which nobody
// else can reach yet. The caller is the tape's only filler.
func (t *Tape) fill(c *chunk) {
	if t.gen == nil {
		t.gen = trace.NewGenerator(t.prof, t.id, t.seed, t.l1cfg.LineBytes)
		t.l1 = cache.New(t.l1cfg)
		t.bp = bpred.New(bpred.DefaultConfig())
	}
	buf, gen, l1, bp := c.buf[:0], t.gen, t.l1, t.bp
	events := uint64(0)
	for ; len(buf) <= chunkBytes-maxEvent; events++ {
		e := gen.Next()
		var b byte
		var miss cache.Result
		switch e.Kind {
		case trace.Branch:
			out := bp.Lookup(e.Addr, e.Taken)
			switch {
			case !out.DirectionCorrect:
				b = evMispredict
			case !out.BTBHit:
				b = evBTBMiss
			default:
				b = evBranch
			}
		case trace.Mem:
			if miss = l1.AccessRW(0, e.Addr, e.Write); miss.Hit {
				b = evHit
				break
			}
			if e.Write {
				b |= missWrite
			}
			if miss.Writeback {
				b |= missDirty
			}
		}
		if e.Insts <= maxShort {
			buf = append(buf, b|byte(e.Insts)<<kindBits)
		} else {
			buf = binary.LittleEndian.AppendUint32(append(buf, b), e.Insts)
		}
		if b < evHit {
			buf = binary.LittleEndian.AppendUint64(buf, e.Addr)
			if b&missDirty != 0 {
				buf = binary.LittleEndian.AppendUint64(buf, miss.EvictedAddr)
			}
		}
	}
	c.buf, c.events = buf, events
}
