package score

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// bruteAtLeastK enumerates all 2^Q outcomes — the oracle Eq. 9 avoids.
func bruteAtLeastK(p []float64, k int) float64 {
	q := len(p)
	if k < 1 {
		k = 1
	}
	if k > q {
		k = q
	}
	var total float64
	for mask := 0; mask < 1<<q; mask++ {
		prob := 1.0
		count := 0
		for i := 0; i < q; i++ {
			if mask&(1<<i) != 0 {
				prob *= p[i]
				count++
			} else {
				prob *= 1 - p[i]
			}
		}
		if count >= k {
			total += prob
		}
	}
	return total
}

func randProbs(rng *rand.Rand, q int) []float64 {
	p := make([]float64, q)
	for i := range p {
		p[i] = rng.Float64()
	}
	return p
}

func TestAtLeastKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 300; iter++ {
		q := 1 + rng.Intn(8)
		p := randProbs(rng, q)
		k := 1 + rng.Intn(q)
		got := AtLeastK(p, k)
		want := bruteAtLeastK(p, k)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("AtLeastK(%v, %d) = %v, brute force %v", p, k, got, want)
		}
	}
}

func TestExactlyKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for iter := 0; iter < 200; iter++ {
		q := 1 + rng.Intn(7)
		p := randProbs(rng, q)
		k := rng.Intn(q + 1)
		var want float64
		for mask := 0; mask < 1<<q; mask++ {
			prob := 1.0
			count := 0
			for i := 0; i < q; i++ {
				if mask&(1<<i) != 0 {
					prob *= p[i]
					count++
				} else {
					prob *= 1 - p[i]
				}
			}
			if count == k {
				want += prob
			}
		}
		if got := ExactlyK(p, k); math.Abs(got-want) > 1e-12 {
			t.Fatalf("ExactlyK(%v, %d) = %v, want %v", p, k, got, want)
		}
	}
}

func TestSoftANDSpecialCases(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 100; iter++ {
		q := 1 + rng.Intn(6)
		p := randProbs(rng, q)
		// 1_softAND == OR (Eq. 7)
		if or, soft := (OR{}).Combine(p), (KSoftAND{K: 1}).Combine(p); math.Abs(or-soft) > 1e-12 {
			t.Fatalf("1_softAND %v != OR %v for %v", soft, or, p)
		}
		// Q_softAND == AND (Eq. 6)
		if and, soft := (AND{}).Combine(p), (KSoftAND{K: q}).Combine(p); math.Abs(and-soft) > 1e-12 {
			t.Fatalf("Q_softAND %v != AND %v for %v", soft, and, p)
		}
	}
}

func TestSoftANDMonotoneInK(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 || len(raw) > 10 {
			return true
		}
		p := make([]float64, len(raw))
		for i, v := range raw {
			p[i] = math.Abs(v) - math.Floor(math.Abs(v)) // fold into [0,1)
		}
		prev := math.Inf(1)
		for k := 1; k <= len(p); k++ {
			cur := AtLeastK(p, k)
			if cur > prev+1e-12 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftANDClamping(t *testing.T) {
	p := []float64{0.5, 0.5}
	if AtLeastK(p, 0) != AtLeastK(p, 1) {
		t.Error("k below 1 should clamp to 1")
	}
	if AtLeastK(p, 99) != AtLeastK(p, 2) {
		t.Error("k above Q should clamp to Q")
	}
	if AtLeastK(nil, 1) != 0 {
		t.Error("empty query set should score 0")
	}
}

func TestOrderStats(t *testing.T) {
	p := []float64{0.3, 0.9, 0.1, 0.5}
	if got := (MinOrderStat{}).Combine(p); got != 0.1 {
		t.Errorf("min = %v", got)
	}
	if got := (MaxOrderStat{}).Combine(p); got != 0.9 {
		t.Errorf("max = %v", got)
	}
	if got := (KthOrderStat{K: 2}).Combine(p); got != 0.5 {
		t.Errorf("2nd largest = %v", got)
	}
	if got := KthLargest(p, 4); got != 0.1 {
		t.Errorf("4th largest = %v", got)
	}
	if got := KthLargest(p, 99); got != 0.1 {
		t.Errorf("clamped k = %v", got)
	}
	if got := KthLargest(nil, 1); got != 0 {
		t.Errorf("empty KthLargest = %v", got)
	}
	if got := (MinOrderStat{}).Combine(nil); got != 0 {
		t.Errorf("empty min = %v", got)
	}
}

func TestOrderStatSandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 100; iter++ {
		q := 1 + rng.Intn(8)
		p := randProbs(rng, q)
		k := 1 + rng.Intn(q)
		lo := (MinOrderStat{}).Combine(p)
		mid := KthLargest(p, k)
		hi := (MaxOrderStat{}).Combine(p)
		if mid < lo || mid > hi {
			t.Fatalf("order stat %v outside [%v,%v]", mid, lo, hi)
		}
	}
}

func TestCombineNodes(t *testing.T) {
	R := [][]float64{
		{0.5, 0.2, 0.0},
		{0.5, 0.8, 0.1},
	}
	and, err := CombineNodes(R, AND{})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.25, 0.16, 0}
	for j := range want {
		if math.Abs(and[j]-want[j]) > 1e-12 {
			t.Errorf("AND node %d = %v, want %v", j, and[j], want[j])
		}
	}
	or, err := CombineNodes(R, OR{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(or[0]-0.75) > 1e-12 {
		t.Errorf("OR node 0 = %v, want 0.75", or[0])
	}
	if _, err := CombineNodes(nil, AND{}); err == nil {
		t.Error("empty matrix should fail")
	}
	if _, err := CombineNodes([][]float64{{1}, {1, 2}}, AND{}); err == nil {
		t.Error("ragged matrix should fail")
	}
}

// TestCombineNodesMatchesPerNode is the contract of CombineNodes'
// row-wise folds: for AND, OR and K_softAND at every k (clamped ones
// included), and for a combiner that goes node by node, each node's score
// equals the per-node Combine bit for bit (NaNs equal as NaNs), on rows
// that mix random probabilities with zeros, ones, subnormals and NaN, over
// more nodes than one K_softAND block.
func TestCombineNodesMatchesPerNode(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	specials := []float64{0, 1, 0x1p-1070, 0.75 * 0x1p-1022, math.NaN()}
	const n = 2*atLeastKBlock + 37
	for q := 1; q <= 6; q++ {
		R := make([][]float64, q)
		for i := range R {
			R[i] = randProbs(rng, n)
			for j := range R[i] {
				if rng.Intn(4) == 0 {
					R[i][j] = specials[rng.Intn(len(specials))]
				}
			}
		}
		combiners := []Combiner{AND{}, OR{}, MinOrderStat{}}
		for k := 0; k <= q+1; k++ {
			combiners = append(combiners, KSoftAND{K: k})
		}
		for _, c := range combiners {
			got, err := CombineNodes(R, c)
			if err != nil {
				t.Fatal(err)
			}
			p := make([]float64, q)
			for j := range got {
				for i := range R {
					p[i] = R[i][j]
				}
				want := c.Combine(p)
				if math.Float64bits(got[j]) != math.Float64bits(want) && !(math.IsNaN(got[j]) && math.IsNaN(want)) {
					t.Fatalf("q=%d %v node %d: %v (%#x), per-node %v (%#x)",
						q, c, j, got[j], math.Float64bits(got[j]), want, math.Float64bits(want))
				}
			}
		}
	}
}

func TestCombinerNames(t *testing.T) {
	cases := map[string]Combiner{
		"AND":             AND{},
		"OR":              OR{},
		"2_softAND":       KSoftAND{K: 2},
		"min-order-stat":  MinOrderStat{},
		"max-order-stat":  MaxOrderStat{},
		"3-th-order-stat": KthOrderStat{K: 3},
	}
	for want, c := range cases {
		if c.String() != want {
			t.Errorf("String() = %q, want %q", c.String(), want)
		}
	}
}

func TestANDBelowOrEqualOR(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 || len(raw) > 10 {
			return true
		}
		p := make([]float64, len(raw))
		for i, v := range raw {
			p[i] = math.Abs(v) - math.Floor(math.Abs(v))
		}
		return (AND{}).Combine(p) <= (OR{}).Combine(p)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
