package cpu

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/workload"
)

// genCore is the core as it was before tapes: the generator, the L1 and
// the predictor in the loop. Its private method is the reference the
// tape-replaying Core must match bit for bit.
type genCore struct {
	gen    *trace.Generator
	prof   trace.Profile
	params Params
	l1     *cache.Cache
	bp     *bpred.Predictor

	cycles float64
	stats  Stats
	miss   l1Miss
}

func newGenCore(id int, prof trace.Profile, seed uint64, l1cfg cache.Config, params Params) *genCore {
	return &genCore{
		gen:    trace.NewGenerator(prof, id, seed, l1cfg.LineBytes),
		prof:   prof,
		params: params,
		l1:     cache.New(l1cfg),
		bp:     bpred.New(bpred.DefaultConfig()),
	}
}

// private is Core.private as it was before tapes, verbatim.
func (c *genCore) private() bool {
	e := c.gen.Next()
	c.stats.Insts += uint64(e.Insts)
	c.cycles += float64(e.Insts) / c.prof.BaseIPC

	switch e.Kind {
	case trace.Branch:
		c.stats.Branches++
		out := c.bp.Lookup(e.Addr, e.Taken)
		if !out.DirectionCorrect {
			c.stats.Mispredicts++
			c.cycles += float64(c.params.MispredictPenalty)
		} else if !out.BTBHit {
			c.stats.BTBMisses++
			c.cycles += float64(c.params.BTBMissPenalty)
		}
	case trace.Mem:
		c.stats.L1Accesses++
		r := c.l1.AccessRW(0, e.Addr, e.Write)
		if r.Hit {
			return false // L1 hits are pipelined away
		}
		c.stats.L1Misses++
		c.miss = l1Miss{addr: e.Addr, write: e.Write, dirtyVictim: r.Writeback, victim: r.EvictedAddr}
		return true
	}
	return false
}

// TestTapeMatchesGenerator replays every catalog benchmark, at core ids 0
// and 5, through two cores sharing one tape and checks each event against
// the generator-driven reference: the same counters, the same clock bits
// and the same miss records. The second reader trails the first by a few
// chunks, so it reads chunks the first recorded.
func TestTapeMatchesGenerator(t *testing.T) {
	const events = 200_000
	l1cfg, params := DefaultL1Config(128), DefaultParams()
	for _, name := range workload.Names() {
		prof, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []int{0, 5} {
			seed := workload.Seed(name)
			ref := newGenCore(id, prof, seed, l1cfg, params)
			tape := NewTape(id, prof, seed, l1cfg)
			lead, trail := NewCore(tape, params, nil), NewCore(tape, params, nil)
			check := func(c *Core, i int, missed bool, want bool, wantMiss l1Miss) {
				if missed != want || c.cycles != ref.cycles || c.stats != ref.stats || (missed && c.miss != wantMiss) {
					t.Fatalf("%s id %d event %d: missed %v clock %v %+v miss %+v; reference %v %v %+v %+v",
						name, id, i, missed, c.cycles, c.stats, c.miss, want, ref.cycles, ref.stats, wantMiss)
				}
			}
			type step struct {
				cycles float64
				stats  Stats
				missed bool
				miss   l1Miss
			}
			const lagN = 3 * chunkBytes
			lag := make([]step, lagN)
			for i := 0; i < events; i++ {
				want := ref.private()
				wantMiss := ref.miss
				if !wantMiss.dirtyVictim {
					wantMiss.victim = 0 // a clean victim is never written back: the tape drops it
				}
				check(lead, i, lead.private(), want, wantMiss)
				if i >= lagN {
					s := lag[i%lagN]
					missed := trail.private()
					if missed != s.missed || trail.cycles != s.cycles || trail.stats != s.stats || (missed && trail.miss != s.miss) {
						t.Fatalf("%s id %d: trailing reader diverged at event %d", name, id, i-lagN)
					}
				}
				lag[i%lagN] = step{ref.cycles, ref.stats, want, wantMiss}
			}
			if ref.stats.L1Misses == 0 || ref.stats.Branches == 0 {
				t.Fatalf("%s: the stream exercised too little: %+v", name, ref.stats)
			}
			if got := tape.Produced(); got < events || got > events+chunkBytes {
				t.Fatalf("%s: %d events recorded for %d replayed", name, got, events)
			}
		}
	}
	waitRecorders(t, 0)
}

// TestTapeRecycles checks that a lone reader reuses its chunks as it goes,
// and that two readers hold only what lies between them once Recycle runs.
func TestTapeRecycles(t *testing.T) {
	prof := computeProfile(2.0)
	prof.MemRatio = 0.3 // short gaps and L1 hits: one byte per event
	tape := NewTape(0, prof, 11, DefaultL1Config(128))
	lone := NewCore(tape, DefaultParams(), &perfectL2{})
	for lone.Insts() < 2_000_000 {
		lone.Step()
	}
	if b := tape.Bytes(); b > 2*chunkBytes {
		t.Fatalf("a lone reader holds %d bytes of tape", b)
	}

	tape = NewTape(0, prof, 11, DefaultL1Config(128))
	ahead, behind := NewCore(tape, DefaultParams(), &perfectL2{}), NewCore(tape, DefaultParams(), &perfectL2{})
	for round := 0; round < 50; round++ {
		for range 20 * chunkBytes {
			ahead.Step()
		}
		for range 19 * chunkBytes {
			behind.Step()
		}
		tape.Recycle()
	}
	// 50 chunks between the readers, plus the 20 the leader records in a
	// round before Recycle runs again.
	if b := tape.Bytes(); b > (50+20+2)*chunkBytes {
		t.Fatalf("two readers 50 chunks apart hold %d bytes of tape", b)
	}
	behind.Retire()
	held := tape.Bytes()
	for range 100 * chunkBytes {
		ahead.Step()
	}
	if b := tape.Bytes(); b != held {
		t.Fatalf("after the trailing reader retired the tape grew from %d to %d bytes", held, b)
	}
	waitRecorders(t, 0)
}

// TestRecorderMatchesInline replays one stream through a lone reader,
// for which Prerecord does nothing, and through two readers on goroutines
// of their own with a recorder filling ahead of them: all three must see
// the same events, the recorded counts must agree, and the lone reader
// must have filled every chunk of its tape and the two readers none.
func TestRecorderMatchesInline(t *testing.T) {
	const steps = 300_000
	prof, err := workload.Get("twolf")
	if err != nil {
		t.Fatal(err)
	}
	run := func(c *Core) (float64, Stats) {
		for range steps {
			c.Step()
		}
		return c.Cycles(), c.Stats()
	}
	lone := NewTape(3, prof, 17, DefaultL1Config(128))
	c := NewCore(lone, DefaultParams(), &perfectL2{})
	stop := lone.Prerecord()
	wantCycles, wantStats := run(c)
	stop()

	shared := NewTape(3, prof, 17, DefaultL1Config(128))
	cores := []*Core{NewCore(shared, DefaultParams(), &perfectL2{}), NewCore(shared, DefaultParams(), &perfectL2{})}
	stop = shared.Prerecord()
	defer stop()
	waitRecorders(t, 1)
	var wg sync.WaitGroup
	for _, c := range cores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if cycles, stats := run(c); cycles != wantCycles || stats != wantStats {
				t.Errorf("a reader of the recorded tape ended at %v %+v, the lone reader at %v %+v", cycles, stats, wantCycles, wantStats)
			}
		}()
	}
	wg.Wait()
	stop()
	stop()
	waitRecorders(t, 0)

	if got, want := shared.Produced(), lone.Produced(); got != want {
		t.Errorf("the recorder produced %d events, the lone reader %d", got, want)
	}
	if all, byReaders := lone.Chunks(); all == 0 || byReaders != all {
		t.Errorf("a lone reader filled %d of its tape's %d chunks", byReaders, all)
	}
	if all, byReaders := shared.Chunks(); byReaders != 0 {
		t.Errorf("the readers of a recorded tape filled %d of its %d chunks", byReaders, all)
	}
}

// recorderGoroutines counts the goroutines running a tape's recorder.
func recorderGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("cpu.(*Tape).recordAhead("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// waitRecorders fails t unless n recorder goroutines run within a
// second: a goroutine just started may not have run yet, and one that
// has closed its done channel may not have exited yet.
func waitRecorders(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); recorderGoroutines() != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d tape recorders running, want %d", recorderGoroutines(), n)
		}
	}
}

// TestCoreHoldsNoPrivateState pins the split: a Core replays its tape and
// owns no generator, L1 or predictor of its own.
func TestCoreHoldsNoPrivateState(t *testing.T) {
	banned := map[reflect.Type]bool{
		reflect.TypeOf(&trace.Generator{}): true,
		reflect.TypeOf(&cache.Cache{}):     true,
		reflect.TypeOf(&bpred.Predictor{}): true,
	}
	ct := reflect.TypeOf(Core{})
	for i := range ct.NumField() {
		if f := ct.Field(i); banned[f.Type] {
			t.Errorf("Core.%s is a %v", f.Name, f.Type)
		}
	}
}
