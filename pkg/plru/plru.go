// Package plru provides allocation-free, per-set recency state for
// set-associative caches under the replacement policies studied by
// Kedzierski et al., "Adapting cache partitioning algorithms to pseudo-LRU
// replacement policies" (IPDPS 2010): true LRU, NRU (Not Recently Used, as
// in the Sun UltraSPARC T2) and BT (Binary Tree pseudo-LRU, as in IBM
// designs), plus a Random reference policy.
//
// Every policy manages the recency state for all sets of one cache and
// supports partition-aware victim selection: Victim takes a WayMask that
// restricts which ways may be evicted, which is how the paper's "global
// replacement masks" enforcement works — and, equally, how a multi-tenant
// software cache enforces per-tenant way quotas (see repro/pkg/cpacache).
// The BT policy additionally exposes the paper's per-level up/down force
// vectors (VictimForced), and each policy exposes the introspection the
// corresponding profiling logic needs (LRU stack distance, NRU used-bit
// counts, BT path bits).
//
// Policies are not safe for concurrent use; callers own the locking (a
// sharded cache typically keeps one policy instance per shard behind the
// shard lock). Touch, Fill, Invalidate and Victim never allocate on any
// policy, so they are safe for hot paths.
package plru

import (
	"fmt"
	"math/bits"
	"strings"
)

// Kind identifies a replacement policy family.
type Kind int

// The replacement policy families used in the paper's evaluation
// (LRU/NRU/BT/Random), plus the adaptive policies layered on afterwards:
// AWRP (Adaptive Weight Ranking Policy, arXiv:1107.4851) and ARC (an
// ARC-style adaptive policy with ghost tiers, after arXiv:1503.07624).
const (
	LRU    Kind = iota // true Least Recently Used
	NRU                // Not Recently Used (used bit + global replacement pointer)
	BT                 // Binary Tree pseudo-LRU
	Random             // uniform random victim (reference)
	AWRP               // Adaptive Weight Ranking (frequency + recency weights)
	ARC                // ARC-style adaptive (T1/T2 tiers + ghost lists)
)

// registry is the one place a policy kind is registered: its conventional
// short name and its constructor, indexed by Kind. String, ParseKind,
// Kinds and New all read it, so adding a policy means a constant above, a
// row here, and nothing anywhere else.
var registry = [...]struct {
	name string
	new  func(sets, ways, cores int, seed uint64) Policy
}{
	LRU:    {"LRU", func(sets, ways, _ int, _ uint64) Policy { return NewLRUPolicy(sets, ways) }},
	NRU:    {"NRU", func(sets, ways, cores int, _ uint64) Policy { return NewNRUPolicy(sets, ways, cores) }},
	BT:     {"BT", func(sets, ways, _ int, _ uint64) Policy { return NewBTPolicy(sets, ways) }},
	Random: {"Random", func(sets, ways, _ int, seed uint64) Policy { return NewRandomPolicy(sets, ways, seed) }},
	AWRP:   {"AWRP", func(sets, ways, _ int, _ uint64) Policy { return NewAWRPPolicy(sets, ways) }},
	ARC:    {"ARC", func(sets, ways, _ int, _ uint64) Policy { return NewARCPolicy(sets, ways) }},
}

// String returns the conventional short name of the policy kind.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(registry) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return registry[k].name
}

// Kinds returns every policy kind in declaration order. The slice is
// freshly allocated; callers may modify it.
func Kinds() []Kind {
	out := make([]Kind, len(registry))
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// ParseKind converts a policy name into a Kind. Names are the String
// forms ("LRU", "NRU", "BT", "Random", "AWRP", "ARC"), matched without
// regard to case.
func ParseKind(s string) (Kind, error) {
	names := make([]string, len(registry))
	for i, r := range registry {
		if strings.EqualFold(s, r.name) {
			return Kind(i), nil
		}
		names[i] = r.name
	}
	return 0, fmt.Errorf("plru: unknown policy %q (want one of %s)", s, strings.Join(names, ", "))
}

// WayMask is a bitmask over cache ways; bit w set means way w is included.
// The zero mask is "no ways"; use Full for "all ways".
type WayMask uint64

// MaxWays is the largest associativity a WayMask can describe.
const MaxWays = 64

// Full returns a mask with the low `ways` bits set.
func Full(ways int) WayMask {
	if ways <= 0 {
		return 0
	}
	if ways >= MaxWays {
		return ^WayMask(0)
	}
	return WayMask(1)<<uint(ways) - 1
}

// Has reports whether way w is in the mask.
func (m WayMask) Has(w int) bool { return m&(1<<uint(w)) != 0 }

// With returns the mask with way w added.
func (m WayMask) With(w int) WayMask { return m | 1<<uint(w) }

// Without returns the mask with way w removed.
func (m WayMask) Without(w int) WayMask { return m &^ (1 << uint(w)) }

// Count returns the number of ways in the mask.
func (m WayMask) Count() int { return bits.OnesCount64(uint64(m)) }

// Nth returns the i-th way of the mask in ascending order (0-based), or
// -1 when the mask holds fewer than i+1 ways. It never allocates.
func (m WayMask) Nth(i int) int {
	for v := uint64(m); v != 0; i-- {
		w := bits.TrailingZeros64(v)
		if i == 0 {
			return w
		}
		v &^= 1 << uint(w)
	}
	return -1
}

// Ways returns the way indices in the mask in ascending order.
func (m WayMask) Ways() []int {
	out := make([]int, 0, m.Count())
	for v := uint64(m); v != 0; {
		w := bits.TrailingZeros64(v)
		out = append(out, w)
		v &^= 1 << uint(w)
	}
	return out
}

// String renders the mask as e.g. "{0,1,5}".
func (m WayMask) String() string {
	ws := m.Ways()
	s := "{"
	for i, w := range ws {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(w)
	}
	return s + "}"
}

// Policy is the common behavior of a replacement policy instance covering
// every set of one cache.
type Policy interface {
	// Kind identifies the policy family.
	Kind() Kind
	// Ways returns the cache associativity the policy was built for.
	Ways() int
	// Sets returns the number of sets the policy tracks.
	Sets() int
	// Touch records an access — hit or fill — to way `way` of set `set`
	// by core `core`, updating the recency state.
	Touch(set, way, core int)
	// Fill records that a *new line* was installed in way `way` of set
	// `set` by core `core`. `sig` is a small partial signature of the
	// line's identity (the caller's packed tag byte, or any stable hash
	// byte); the adaptive policies use it to probe and maintain their
	// ghost/history state, and to reset per-line frequency. For the
	// static policies Fill is exactly Touch. Fill never allocates.
	Fill(set, way, core int, sig uint8)
	// Victim selects the way to evict in `set` for `core`, restricted to
	// the allowed mask. The mask must be non-empty; Victim panics on an
	// empty mask because that is always a caller bug.
	Victim(set, core int, allowed WayMask) int
	// Invalidate clears any recency the way had accumulated in `set`,
	// making it the policy's preferred next victim (exactly how a hardware
	// valid-bit clear interacts with replacement state). Callers use it
	// when a line leaves the cache outside the replacement path — an
	// explicit delete, an external invalidation — so the recency state
	// never points at a stale line. Invalidate never allocates.
	Invalidate(set, way int)
	// SetPartition installs per-core way masks that scope NRU's used-bit
	// reset rule (and are available to any policy that wants partition
	// awareness on hits). A nil slice returns to unpartitioned behavior.
	SetPartition(masks []WayMask)
}

// New constructs a policy of the given kind for a cache with `sets` sets,
// `ways` ways and `cores` sharer cores. The seed is used only by Random.
func New(kind Kind, sets, ways, cores int, seed uint64) Policy {
	if kind < 0 || int(kind) >= len(registry) {
		panic(fmt.Sprintf("plru: unknown kind %d", kind))
	}
	return registry[kind].new(sets, ways, cores, seed)
}

func validateGeometry(sets, ways int) {
	if sets <= 0 {
		panic("plru: sets must be positive")
	}
	if ways <= 0 || ways > MaxWays {
		panic(fmt.Sprintf("plru: ways must be in [1,%d]", MaxWays))
	}
}

func checkVictimArgs(set, sets, ways int, allowed WayMask) {
	if set < 0 || set >= sets {
		panic(fmt.Sprintf("plru: set %d out of range [0,%d)", set, sets))
	}
	if allowed&Full(ways) == 0 {
		panic("plru: Victim called with empty allowed mask")
	}
}
