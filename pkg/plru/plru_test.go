package plru

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		LRU: "LRU", NRU: "NRU", BT: "BT", Random: "Random",
		AWRP: "AWRP", ARC: "ARC",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	if got := Kind(42).String(); got != "Kind(42)" {
		t.Errorf("unknown kind string = %q", got)
	}
}

// TestParseKind pins the registry's contract: every registered kind
// round-trips String <-> ParseKind, and unknown names are rejected with
// an error that lists the known ones.
func TestParseKind(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	for _, bad := range []string{"plru", "clock", "", "LRU ", "Kind(0)"} {
		_, err := ParseKind(bad)
		if err == nil {
			t.Errorf("ParseKind(%q) accepted", bad)
			continue
		}
		for _, k := range Kinds() {
			if !strings.Contains(err.Error(), k.String()) {
				t.Errorf("ParseKind(%q) error %q does not list %v", bad, err, k)
			}
		}
	}
}

// TestParseKindIgnoresCase holds the -policy flag spellings cpacached
// has always accepted (the table moved here with the parser, from
// internal/server's test of its own parser, now deleted).
func TestParseKindIgnoresCase(t *testing.T) {
	for name, want := range map[string]Kind{
		"lru": LRU, "NRU": NRU, "bt": BT, "Random": Random,
		"awrp": AWRP, "ARC": ARC, "rAnDoM": Random,
	} {
		got, err := ParseKind(name)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
}

func TestFullMask(t *testing.T) {
	if Full(0) != 0 {
		t.Error("Full(0) != 0")
	}
	if Full(4) != 0xF {
		t.Errorf("Full(4) = %x", Full(4))
	}
	if Full(64) != ^WayMask(0) {
		t.Errorf("Full(64) = %x", Full(64))
	}
	if Full(-3) != 0 {
		t.Error("Full(negative) != 0")
	}
}

func TestWayMaskOps(t *testing.T) {
	m := WayMask(0).With(1).With(5)
	if !m.Has(1) || !m.Has(5) || m.Has(0) {
		t.Fatalf("mask membership wrong: %v", m)
	}
	if m.Count() != 2 {
		t.Fatalf("Count = %d", m.Count())
	}
	m = m.Without(1)
	if m.Has(1) || !m.Has(5) {
		t.Fatalf("Without failed: %v", m)
	}
	ws := WayMask(0).With(3).With(0).With(7).Ways()
	if len(ws) != 3 || ws[0] != 0 || ws[1] != 3 || ws[2] != 7 {
		t.Fatalf("Ways() = %v", ws)
	}
	if s := WayMask(0).With(0).With(2).String(); s != "{0,2}" {
		t.Fatalf("String() = %q", s)
	}
}

func TestWayMaskCountMatchesWaysLen(t *testing.T) {
	f := func(m uint64) bool {
		wm := WayMask(m)
		return wm.Count() == len(wm.Ways())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewConstructsAllKinds(t *testing.T) {
	for _, k := range Kinds() {
		p := New(k, 8, 16, 2, 1)
		if p.Kind() != k {
			t.Errorf("New(%v).Kind() = %v", k, p.Kind())
		}
		if p.Ways() != 16 || p.Sets() != 8 {
			t.Errorf("%v geometry wrong: %d ways %d sets", k, p.Ways(), p.Sets())
		}
	}
}

func TestNewUnknownKindPanics(t *testing.T) {
	for _, k := range []Kind{Kind(99), Kind(len(Kinds())), Kind(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v): no panic for unknown kind", k)
				}
			}()
			New(k, 1, 4, 1, 0)
		}()
	}
}

// TestAllPoliciesVictimInMask exercises the shared Victim contract across
// every policy: the returned way is always within the allowed mask.
func TestAllPoliciesVictimInMask(t *testing.T) {
	for _, k := range Kinds() {
		p := New(k, 4, 16, 2, 7)
		masks := []WayMask{
			Full(16),
			Full(8),
			Full(16) &^ Full(8),
			WayMask(0).With(3),
			WayMask(0).With(0).With(15),
		}
		for trial := 0; trial < 200; trial++ {
			for _, m := range masks {
				set := trial % 4
				v := p.Victim(set, trial%2, m)
				if !m.Has(v) {
					t.Fatalf("%v: victim %d outside mask %v", k, v, m)
				}
				p.Touch(set, v, trial%2)
			}
		}
	}
}

func TestRandomVictimCoversMask(t *testing.T) {
	p := NewRandomPolicy(1, 8, 42)
	mask := WayMask(0).With(1).With(4).With(6)
	seen := map[int]int{}
	for i := 0; i < 3000; i++ {
		seen[p.Victim(0, 0, mask)]++
	}
	for _, w := range mask.Ways() {
		if seen[w] < 500 {
			t.Errorf("way %d selected only %d/3000 times", w, seen[w])
		}
	}
	if len(seen) != 3 {
		t.Fatalf("victims outside mask: %v", seen)
	}
}

func TestRangeMask(t *testing.T) {
	if rangeMask(0, 4) != Full(4) {
		t.Errorf("rangeMask(0,4) = %v", rangeMask(0, 4))
	}
	if rangeMask(4, 8) != Full(8)&^Full(4) {
		t.Errorf("rangeMask(4,8) = %v", rangeMask(4, 8))
	}
	if rangeMask(3, 3) != 0 {
		t.Errorf("rangeMask(3,3) = %v", rangeMask(3, 3))
	}
}

// TestPolicyZeroAllocs holds the package's hot-path contract: Touch,
// Fill, Invalidate and a masked Victim allocate nothing on any policy, at
// the paper's 16 ways and at the widest mask.
func TestPolicyZeroAllocs(t *testing.T) {
	for _, ways := range []int{16, MaxWays} {
		for _, k := range Kinds() {
			p := New(k, 8, ways, 2, 1)
			mask := Full(ways) &^ Full(ways/4)
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				set, way, core := i&7, i%ways, i&1
				p.Touch(set, way, core)
				p.Fill(set, (way+1)%ways, core, uint8(i))
				p.Invalidate(set, (way+2)%ways)
				p.Victim(set, core, mask)
				i++
			})
			if allocs != 0 {
				t.Errorf("%v at %d ways: %v allocs per Touch+Fill+Invalidate+Victim, want 0", k, ways, allocs)
			}
		}
	}
}
