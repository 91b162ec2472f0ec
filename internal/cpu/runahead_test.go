package cpu

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
)

// l2Call is one call a core made on its SharedL2.
type l2Call struct {
	Writeback bool
	Addr      uint64
	Write     bool
}

// recordingL2 logs every call and hits on a fixed half of the lines, so
// two cores fed the same stream see the same outcomes.
type recordingL2 struct{ calls []l2Call }

func (r *recordingL2) Access(core int, addr uint64, write bool) bool {
	r.calls = append(r.calls, l2Call{Addr: addr, Write: write})
	return (addr>>7)%2 == 0
}

func (r *recordingL2) Writeback(core int, addr uint64) {
	r.calls = append(r.calls, l2Call{Writeback: true, Addr: addr})
}

// TestRunAheadPlusSharedEqualsStep drives one core with Step and its twin
// with RunAhead/Shared under randomly drawn stop limits: the same events
// must happen, in the same order, with the same clocks.
func TestRunAheadPlusSharedEqualsStep(t *testing.T) {
	const events = 60_000
	prof := writeProfile()
	prof.L1Locality, prof.BranchRatio, prof.BranchBias, prof.MLPOverlap = 0.9, 0.1, 0.8, 0.3
	stepL2, aheadL2 := &recordingL2{}, &recordingL2{}
	stepped := New(0, prof, 11, DefaultL1Config(128), DefaultParams(), stepL2)
	ahead := New(0, prof, 11, DefaultL1Config(128), DefaultParams(), aheadL2)

	for i := 0; i < events; i++ {
		stepped.Step()
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for done := 0; done < events; {
		before := math.Inf(1)
		if rng.IntN(2) == 0 {
			before = ahead.Cycles() + float64(rng.IntN(200))
		}
		crossAt := uint64(math.MaxUint64)
		if rng.IntN(2) == 0 {
			crossAt = ahead.Insts() + uint64(rng.IntN(300))
		}
		maxEvents := min(1+rng.IntN(64), events-done)
		clock := ahead.Cycles()
		_, n, shared := ahead.RunAhead(before, crossAt, maxEvents)
		if n > maxEvents || (n == 0 && clock < before) {
			t.Fatalf("ran %d events (cap %d) from clock %v (limit %v)", n, maxEvents, clock, before)
		}
		done += n
		if shared {
			ahead.Shared()
		}
	}
	if ahead.Cycles() != stepped.Cycles() || ahead.Stats() != stepped.Stats() {
		t.Fatalf("cores diverged: %v %+v, stepped %v %+v", ahead.Cycles(), ahead.Stats(), stepped.Cycles(), stepped.Stats())
	}
	if !reflect.DeepEqual(aheadL2.calls, stepL2.calls) {
		t.Fatalf("L2 call sequences differ (%d calls, stepped %d)", len(aheadL2.calls), len(stepL2.calls))
	}
	if st := ahead.Stats(); st.L1Writebacks == 0 || st.L2Misses == 0 || st.Mispredicts == 0 {
		t.Fatalf("the stream exercised too little: %+v", st)
	}
}

// TestRunAheadStops pins each of the four ways a run-ahead ends.
func TestRunAheadStops(t *testing.T) {
	inf, never := math.Inf(1), uint64(math.MaxUint64)

	t.Run("L1 miss", func(t *testing.T) {
		l2 := &recordingL2{}
		c := New(0, memProfile(0), 11, DefaultL1Config(128), DefaultParams(), l2)
		start, n, shared := c.RunAhead(inf, never, 1<<20)
		if !shared || n == 0 || start >= c.Cycles() {
			t.Fatalf("cold stream: start %v, %d events, shared %v, clock %v", start, n, shared, c.Cycles())
		}
		if len(l2.calls) != 0 || c.Stats().L1Misses != 1 || c.Stats().L2Accesses != 0 {
			t.Fatalf("the private half reached the L2: %d calls, %+v", len(l2.calls), c.Stats())
		}
		clock := c.Cycles()
		if c.Shared(); c.Cycles() <= clock || len(l2.calls) != 1 || c.Stats().L2Accesses != 1 {
			t.Fatalf("shared half: clock %v -> %v, calls %+v", clock, c.Cycles(), l2.calls)
		}
	})

	// The remaining three need long private stretches: a working set the
	// L1 holds, warmed until the cold misses are over.
	warm := func(t *testing.T) (*Core, *perfectL2) {
		l2 := &perfectL2{}
		c := runCore(t, computeProfile(2.0), l2, 50_000)
		return c, l2
	}

	t.Run("event cap", func(t *testing.T) {
		c, l2 := warm(t)
		seen := l2.accesses
		start, n, shared := c.RunAhead(inf, never, 500)
		if n != 500 || shared || start != c.Cycles() || l2.accesses != seen {
			t.Fatalf("start %v (clock %v), %d events, shared %v", start, c.Cycles(), n, shared)
		}
	})

	t.Run("clock limit", func(t *testing.T) {
		c, _ := warm(t)
		if start, n, shared := c.RunAhead(c.Cycles(), never, 1<<20); n != 0 || shared || start != c.Cycles() {
			t.Fatalf("an event started at the limit: start %v, %d events", start, n)
		}
		limit := c.Cycles() + 100
		start, n, shared := c.RunAhead(limit, never, 1<<20)
		if n == 0 || shared || start != c.Cycles() || start < limit || start > limit+20 {
			t.Fatalf("limit %v: start %v (clock %v), %d events, shared %v", limit, start, c.Cycles(), n, shared)
		}
	})

	t.Run("instruction target", func(t *testing.T) {
		c, _ := warm(t)
		target := c.Insts() + 1000
		start, n, shared := c.RunAhead(inf, target, 1<<20)
		if n == 0 || shared || c.Insts() < target || c.Insts() > target+200 || start >= c.Cycles() {
			t.Fatalf("target %d: %d instructions, start %v (clock %v), %d events, shared %v",
				target, c.Insts(), start, c.Cycles(), n, shared)
		}
	})
}
