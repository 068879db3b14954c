package linalg

import (
	"math/rand"
	"testing"
)

func benchMatrix(b *testing.B, n, nnzPerRow int) (*CSR, []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	entries := make([]Triple, 0, n*nnzPerRow)
	for r := 0; r < n; r++ {
		for k := 0; k < nnzPerRow; k++ {
			entries = append(entries, Triple{r, rng.Intn(n), rng.Float64()})
		}
	}
	m, err := NewCSR(n, n, entries)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return m, x
}

func BenchmarkSpMV(b *testing.B) {
	m, x := benchMatrix(b, 10000, 10)
	y := make([]float64, m.Rows())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVecTo(y, x)
	}
}

func BenchmarkSpMVTranspose(b *testing.B) {
	m, x := benchMatrix(b, 10000, 10)
	y := make([]float64, m.Cols())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVecTransTo(y, x)
	}
}

func BenchmarkCSRAssembly(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n := 5000
	entries := make([]Triple, 0, n*8)
	for r := 0; r < n; r++ {
		for k := 0; k < 8; k++ {
			entries = append(entries, Triple{r, rng.Intn(n), 1})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCSR(n, n, entries); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGaussSeidelSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a, rhs, _ := spdSystem(b, rng, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := GaussSeidel(a, rhs, nil, 1e-8, 10000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLUFactorizeSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := 200
	a := NewDense(n, n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			a.Set(r, c, rng.NormFloat64())
		}
		a.Add(r, r, float64(n))
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := a.Factorize()
		if err != nil {
			b.Fatal(err)
		}
		f.Solve(rhs)
	}
}
