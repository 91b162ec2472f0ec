package core_test

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/cmp"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/workload"
	"repro/pkg/cpapart"
)

// TestEveryAcronymOnEveryCoreCount builds a whole CMP for every acronym
// shape ParseAcronym accepts on 1 to 8 cores, runs it across a dozen
// interval boundaries and checks that every allocation installed — the
// initial one included — hands out all 16 ways, at least one per core,
// and under up/down enforcement lays out as buddy blocks. An equal split
// over 3, 5, 6 or 7 cores has no buddy layout, so M-BT must start from
// something else there.
func TestEveryAcronymOnEveryCoreCount(t *testing.T) {
	const ways = 16
	names := workload.Names()
	for _, prefix := range []string{"C-", "M-"} {
		for _, suffix := range []string{"L", "BT", "1.0N", "0.75N", "0.5N"} {
			cpa, err := core.ParseAcronym(prefix + suffix)
			if err != nil {
				t.Fatal(err)
			}
			cpa.Interval, cpa.SampleRate = 400, 4
			for cores := 1; cores <= 8; cores++ {
				t.Run(fmt.Sprintf("%s/%dcores", cpa.Acronym, cores), func(t *testing.T) {
					c := cpa
					sys, err := cmp.New(cmp.Config{
						Workload: workload.Workload{Name: "acr", Benchmarks: names[:cores]},
						L2: cache.Config{
							Name: "L2", SizeBytes: 256 << 10, LineBytes: 128, Ways: ways,
							Policy: c.Policy, Cores: cores, Seed: 1,
						},
						Params:   cpu.DefaultParams(),
						L1:       cpu.DefaultL1Config(128),
						MaxInsts: 3000,
						CPA:      &c,
					})
					if err != nil {
						t.Fatal(err)
					}
					check := func(when string, a cpapart.Allocation) {
						if len(a) != cores || !a.Valid(ways) {
							t.Fatalf("%s: allocation %v is not %d shares of %d ways", when, a, cores, ways)
						}
						if c.Enforcement == core.EnforceUpDown {
							if _, err := cpapart.BuddyLayout(a, ways); err != nil {
								t.Fatalf("%s: allocation %v: %v", when, a, err)
							}
						}
					}
					check("initial", sys.CPA().Allocation())
					sys.CPA().OnRepartition = func(cycle uint64, a cpapart.Allocation) {
						check(fmt.Sprintf("cycle %d", cycle), a)
					}
					sys.Run()
					if n := sys.CPA().Repartitions(); n < 10 {
						t.Fatalf("only %d repartitions", n)
					}
				})
			}
		}
	}
}
