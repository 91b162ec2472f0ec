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
// of Cores — one per configuration the core runs in. The tape produces its
// events on demand, a chunk at a time, when its most advanced reader runs
// out of them; chunks every reader has passed are reused.
//
// Several readers may replay a tape from different goroutines. Production
// and recycling are serialized by the tape's lock, and a chunk is immutable
// from the moment it is linked until every reader has passed it.
type Tape struct {
	id    int
	prof  trace.Profile
	seed  uint64
	l1cfg cache.Config

	mu  sync.Mutex
	gen *trace.Generator // built by the first production
	l1  *cache.Cache
	bp  *bpred.Predictor

	head    *chunk   // the oldest chunk a reader may still be on
	free    []*chunk // passed by every reader, ready for reuse
	readers []*Core

	seq      uint64 // chunks linked so far
	produced uint64 // events recorded
	bytes    int    // chunk buffers allocated
}

// chunkBytes is a chunk's capacity. A chunk ends when one more event
// might not fit: its byte, a long instruction count, the missing address
// and the dirty victim.
const (
	chunkBytes = 4096
	maxEvent   = 1 + 4 + 8 + 8
)

// chunk is a run of recorded events. Each event is one byte, its kind in
// the low three bits and its instruction count in the high five, 0
// meaning the count did not fit and follows as four bytes. An L1 miss then
// adds the missing address and, when the victim was dirty, the victim's
// line address, eight bytes each, little-endian.
type chunk struct {
	seq  uint64
	buf  []byte
	next atomic.Pointer[chunk]
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
	return &Tape{id: id, prof: prof, seed: seed, l1cfg: l1cfg, head: &chunk{}}
}

// Interchangeable reports whether t and o record the same events: the same
// core id, profile, seed and L1.
func (t *Tape) Interchangeable(o *Tape) bool {
	return t.id == o.id && t.seed == o.seed && t.l1cfg == o.l1cfg && reflect.DeepEqual(t.prof, o.prof)
}

// Produced reports how many events the tape has recorded.
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

// next returns the chunk after r's, recording it if no reader has yet.
func (t *Tape) next(r *Core) *chunk {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := r.ch.next.Load()
	if n == nil {
		n = t.record()
		r.ch.next.Store(n) // publishes n's contents to the other readers
	}
	if len(t.readers) == 1 && t.readers[0] == r {
		t.releaseTo(n)
	}
	return n
}

// record fills a fresh chunk with the next events of the private half.
// The caller holds t.mu.
func (t *Tape) record() *chunk {
	if t.gen == nil {
		t.gen = trace.NewGenerator(t.prof, t.id, t.seed, t.l1cfg.LineBytes)
		t.l1 = cache.New(t.l1cfg)
		t.bp = bpred.New(bpred.DefaultConfig())
	}
	var c *chunk
	if n := len(t.free); n > 0 {
		c, t.free = t.free[n-1], t.free[:n-1]
		c.buf = c.buf[:0]
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

	buf, gen, l1, bp := c.buf, t.gen, t.l1, t.bp
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
	t.produced += events
	c.buf = buf
	return c
}
