// pseudolru-anatomy walks through the paper's Figures 2–5 with live data
// structures: the LRU stack + SDH construction (Fig. 2), NRU used-bit
// profiling (Fig. 3), the BT tree with its ID-bit decoder, the estimator
// and its aliasing limitation (Fig. 4), and the up/down enforcement truth
// table (Fig. 5).
//
//	go run ./examples/pseudolru-anatomy
package main

import (
	"fmt"
	"io"
	"os"

	"repro/pkg/cpapart"
	"repro/pkg/plru"
)

func main() { run(os.Stdout) }

// run prints the four figures to out.
func run(out io.Writer) {
	figure2(out)
	figure3(out)
	figure4(out)
	figure5(out)
}

// figure2 reproduces the CDD example: a 4-way set holding {A,B,C,D} with
// A the MRU; after accesses C, D the second access to D hits at stack
// distance 1 and register r1 is incremented.
func figure2(out io.Writer) {
	fmt.Fprintln(out, "Figure 2: LRU stack and SDH construction")
	p := plru.NewLRUPolicy(1, 4)
	names := []string{"A", "B", "C", "D"}
	// Establish A MRU ... D LRU.
	for w := 3; w >= 0; w-- {
		p.Touch(0, w, 0)
	}
	show := func() {
		order := make([]string, 4)
		for w := 0; w < 4; w++ {
			order[p.Dist(0, w)-1] = names[w]
		}
		fmt.Fprintf(out, "  stack (MRU->LRU): %v\n", order)
	}
	show()
	fmt.Fprintln(out, "  access C, then D:")
	p.Touch(0, 2, 0)
	p.Touch(0, 3, 0)
	show()
	fmt.Fprintf(out, "  next access to D sees stack distance %d -> increment r%d\n",
		p.Dist(0, 3), p.Dist(0, 3))
	fmt.Fprintln(out, "  with 2 ways assigned, predicted misses = r3 + r4 + r5 (tail of the SDH)")
	fmt.Fprintln(out)
}

// figure3 shows the two NRU estimator cases on a 4-way set.
func figure3(out io.Writer) {
	fmt.Fprintln(out, "Figure 3: NRU used-bit profiling")
	p := plru.NewNRUPolicy(1, 4, 1)
	names := []string{"A", "B", "C", "D"}
	bits := func() string {
		s := ""
		for w := 0; w < 4; w++ {
			if p.Used(0, w) {
				s += names[w] + "=1 "
			} else {
				s += names[w] + "=0 "
			}
		}
		return s
	}
	fmt.Fprintln(out, "  (a) access C then D:", "initial bits:", bits())
	p.Touch(0, 2, 0)
	p.Touch(0, 3, 0)
	fmt.Fprintln(out, "      after C, D:     ", bits())
	u := p.UsedCount(0)
	fmt.Fprintf(out, "      re-access D: used bit already 1, U=%d -> estimated distance in [1,%d]; eSDH assumes ceil(S*U)\n", u, u)

	q := plru.NewNRUPolicy(1, 4, 1)
	q.Touch(0, 0, 0)
	q.Touch(0, 1, 0)
	fmt.Fprintln(out, "  (b) access A then B: bits:", func() string {
		s := ""
		for w := 0; w < 4; w++ {
			if q.Used(0, w) {
				s += names[w] + "=1 "
			} else {
				s += names[w] + "=0 "
			}
		}
		return s
	}())
	fmt.Fprintf(out, "      access C: used bit 0, U=2 -> distance in [3,4]; paper performs no eSDH update\n")
	fmt.Fprintln(out)
}

// figure4 demonstrates the BT tree, the ID-bit decoder, the estimator
// arithmetic, and the aliasing limitation.
func figure4(out io.Writer) {
	fmt.Fprintln(out, "Figure 4: BT scheme, decoder, estimator, limitation")
	p := plru.NewBTPolicy(1, 4)
	for w := 0; w < 4; w++ {
		fmt.Fprintf(out, "  way %d: ID bits %02b (decoder: the way's binary digits)\n",
			w, p.IDBits(w))
	}
	fmt.Fprintln(out, "  touch way 1, then way 2:")
	p.Touch(0, 1, 0)
	p.Touch(0, 2, 0)
	v := p.Victim(0, 0, plru.Full(4))
	fmt.Fprintf(out, "  victim walk lands on way %d (estimated stack position %d = A)\n",
		v, p.EstStackPos(0, v))
	for w := 0; w < 4; w++ {
		fmt.Fprintf(out, "  way %d: path bits %02b XOR ID %02b -> estimate A - %d = %d\n",
			w, p.PathBits(0, w), p.IDBits(w),
			p.PathBits(0, w)^p.IDBits(w), p.EstStackPos(0, w))
	}
	fmt.Fprintln(out, "  limitation: the A-1 tree bits cannot order all A lines —")
	fmt.Fprintln(out, "  different true LRU stacks share identical tree bits, so the")
	fmt.Fprintln(out, "  profiling logic estimates (rather than determines) positions.")
	fmt.Fprintln(out)
}

// figure5 prints the up/down truth table and shows buddy-partition
// enforcement steering the victim walk.
func figure5(out io.Writer) {
	fmt.Fprintln(out, "Figure 5: up/down force vectors (truth table per tree level)")
	fmt.Fprintln(out, "  up down | effective bit")
	fmt.Fprintln(out, "   0   0  | stored BT bit")
	fmt.Fprintln(out, "   1   0  | forced to upper subtree")
	fmt.Fprintln(out, "   0   1  | forced to lower subtree")
	fmt.Fprintln(out, "   1   1  | forbidden")

	p := plru.NewBTPolicy(1, 8)
	blocks, err := cpapart.BuddyLayout([]int{4, 2, 2}, 8)
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(out, "\n  buddy layout for shares [4 2 2] of an 8-way set:")
	for core, b := range blocks {
		up, down := cpapart.ForceVectors(b, 8)
		v := p.VictimForced(0, up, down)
		fmt.Fprintf(out, "  core %d: ways %v, up=%v down=%v -> victim way %d\n",
			core, b.Mask(), fmtBits(up), fmtBits(down), v)
	}
}

func fmtBits(bs []bool) string {
	s := ""
	for _, b := range bs {
		if b {
			s += "1"
		} else {
			s += "0"
		}
	}
	return s
}
