package linalg

import (
	"math/rand"
	"testing"
)

// spdSystem builds a random diagonally dominant symmetric system (hence SPD)
// and a known solution.
func spdSystem(t testing.TB, rng *rand.Rand, n int) (*CSR, []float64, []float64) {
	t.Helper()
	var entries []Triple
	for r := 0; r < n; r++ {
		rowSum := 0.0
		for c := r + 1; c < n; c++ {
			if rng.Float64() < 0.3 {
				v := rng.Float64()
				entries = append(entries, Triple{r, c, v}, Triple{c, r, v})
				rowSum += v
			}
		}
		entries = append(entries, Triple{r, r, rowSum + 1 + rng.Float64()*float64(n)})
	}
	// The diagonal above only accounts for the upper half; add the lower
	// half contributions by scanning.
	a, err := NewCSR(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}
	// Strengthen the diagonal to cover both halves (keeps dominance).
	var fix []Triple
	for r := 0; r < n; r++ {
		cols, vals := a.Row(r)
		var off float64
		for i, c := range cols {
			if c != r {
				off += vals[i]
			}
		}
		fix = append(fix, Triple{r, r, off})
	}
	entries = append(entries, fix...)
	a, err = NewCSR(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	return a, a.MulVec(want), want
}

func TestGaussSeidelConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	a, b, want := spdSystem(t, rng, 40)
	x, res, err := GaussSeidel(a, b, nil, 1e-12, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("GaussSeidel did not converge: %+v", res)
	}
	if !vecAlmostEq(x, want, 1e-7) {
		t.Fatal("GaussSeidel solution wrong")
	}
}

func TestSolversRejectZeroDiagonal(t *testing.T) {
	a, _ := NewCSR(2, 2, []Triple{{0, 1, 1}, {1, 0, 1}})
	b := []float64{1, 1}
	if _, _, err := GaussSeidel(a, b, nil, 1e-9, 10); err == nil {
		t.Error("GaussSeidel should reject zero diagonal")
	}
}

func TestSolversShapeMismatch(t *testing.T) {
	a, _ := NewCSR(2, 3, nil)
	if _, _, err := GaussSeidel(a, []float64{1, 2}, nil, 1e-9, 10); err == nil {
		t.Error("non-square GaussSeidel should fail")
	}
	sq, _ := NewCSR(2, 2, []Triple{{0, 0, 1}, {1, 1, 1}})
	if _, _, err := GaussSeidel(sq, []float64{1}, nil, 1e-9, 10); err == nil {
		t.Error("wrong-length b should fail")
	}
}

func TestVectorHelpers(t *testing.T) {
	x := []float64{1, -2, 3}
	if Dot(x, x) != 14 {
		t.Errorf("Dot = %v", Dot(x, x))
	}
	y := Clone(x)
	Scale(3, y)
	if !vecAlmostEq(y, []float64{3, -6, 9}, 0) {
		t.Errorf("Scale result %v", y)
	}
	Scale(1.0/3, y)
	if !vecAlmostEq(y, x, 1e-15) {
		t.Errorf("Scale result %v", y)
	}
	Fill(y, 7)
	if y[0] != 7 || y[2] != 7 {
		t.Errorf("Fill result %v", y)
	}
	if MaxDiff([]float64{1, 2}, []float64{1.5, 0}) != 2 {
		t.Error("MaxDiff wrong")
	}
	e := Unit(3, 1)
	if e[0] != 0 || e[1] != 1 || e[2] != 0 {
		t.Errorf("Unit = %v", e)
	}
}
