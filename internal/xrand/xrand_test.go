package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs of 100", same)
	}
}

func TestKnownSplitMixValues(t *testing.T) {
	// Reference values for SplitMix64 seeded with 1234567
	// (from the public-domain reference implementation by Vigna).
	r := New(1234567)
	want := []uint64{
		6457827717110365317,
		3203168211198807973,
		9817491932198370423,
		4593380528125082431,
		16408922859458223821,
	}
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Errorf("step %d: got %d, want %d", i, got, w)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(99)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const buckets = 8
	const n = 80000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.05 {
			t.Errorf("bucket %d: count %d deviates >5%% from %v", i, c, want)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(21)
	p := 0.25
	g := NewGeometric(p)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(g.Draw(r))
	}
	mean := sum / n
	want := (1 - p) / p // 3.0
	if math.Abs(mean-want) > 0.1 {
		t.Fatalf("Geometric(%v) mean = %v, want ~%v", p, mean, want)
	}
}

func TestGeometricOne(t *testing.T) {
	r, untouched := New(3), New(3)
	g := NewGeometric(1)
	for i := 0; i < 100; i++ {
		if v := g.Draw(r); v != 0 {
			t.Fatalf("Geometric(1) = %d, want 0", v)
		}
	}
	if r.Uint64() != untouched.Uint64() {
		t.Fatal("Geometric(1) consumed randomness")
	}
}

func TestExpMean(t *testing.T) {
	r := New(17)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(10)
	}
	mean := sum / n
	if math.Abs(mean-10) > 0.3 {
		t.Fatalf("Exp(10) mean = %v, want ~10", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(8)
	for _, n := range []int{0, 1, 2, 5, 64} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestWeightedChoiceDistribution(t *testing.T) {
	r := New(13)
	weights := []float64{1, 2, 3, 4}
	const n = 100000
	counts := make([]int, len(weights))
	for i := 0; i < n; i++ {
		counts[r.WeightedChoice(weights)]++
	}
	for i, w := range weights {
		want := w / 10 * n
		if math.Abs(float64(counts[i])-want) > want*0.05 {
			t.Errorf("outcome %d: count %d, want ~%v", i, counts[i], want)
		}
	}
}

func TestCumTableMatchesWeightedChoice(t *testing.T) {
	weights := []float64{5, 0, 1, 10, 0.5}
	tbl := NewCumTable(weights)
	r := New(29)
	const n = 200000
	counts := make([]int, len(weights))
	for i := 0; i < n; i++ {
		counts[tbl.Sample(r)]++
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	for i, w := range weights {
		want := w / sum * n
		tol := want*0.05 + 50
		if math.Abs(float64(counts[i])-want) > tol {
			t.Errorf("outcome %d: count %d, want ~%v", i, counts[i], want)
		}
	}
}

func TestCumTableZeroWeightNeverSampled(t *testing.T) {
	tbl := NewCumTable([]float64{1, 0, 1})
	r := New(31)
	for i := 0; i < 10000; i++ {
		if tbl.Sample(r) == 1 {
			t.Fatal("zero-weight outcome was sampled")
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(55)
	child := r.Split()
	// The parent continues; both streams should differ from each other.
	same := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split stream collided with parent %d times", same)
	}
}

func TestMul64Property(t *testing.T) {
	// Verify our 128-bit multiply against big-integer-free identities:
	// (a*b) mod 2^64 must equal Go's native wraparound product.
	f := func(a, b uint64) bool {
		_, lo := mul64(a, b)
		return lo == a*b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnBoundsProperty(t *testing.T) {
	r := New(77)
	f := func(raw uint32) bool {
		n := int(raw%10000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
