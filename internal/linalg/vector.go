// Package linalg provides the small linear-algebra substrate CePS needs:
// dense vectors, CSR sparse matrices with matrix–vector products, the
// fused power-iteration sweep of the blocked random-walk solver (Sweep),
// the Gauss–Seidel solver of the delivered-current baseline, and a dense
// LU factorization used to validate the iterative random-walk solver
// against the closed form (Eq. 12 of the paper) on small graphs.
//
// Everything is float64; graphs at the paper's scale (~315K nodes, ~1.8M
// edges) fit comfortably. Sweep's inner loop is AVX-512 assembly on amd64
// CPUs that have it and Go everywhere else, with identical results.
package linalg

import (
	"fmt"
	"math"
)

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Scale multiplies x by a in place.
func Scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Clone returns a copy of x.
func Clone(x []float64) []float64 {
	y := make([]float64, len(x))
	copy(y, x)
	return y
}

// Unit returns the length-n unit vector e_i (the paper's query vector).
func Unit(n, i int) []float64 {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("linalg: unit index %d out of range [0,%d)", i, n))
	}
	e := make([]float64, n)
	e[i] = 1
	return e
}

// MaxDiff returns max_i |x_i - y_i|, the convergence check used by the
// iterative solvers. A NaN difference is returned as NaN rather than being
// skipped by the > comparison — otherwise a poisoned iterate would report a
// small finite residual and "converge" to garbage.
func MaxDiff(x, y []float64) float64 {
	var m float64
	for i, v := range x {
		d := math.Abs(v - y[i])
		if math.IsNaN(d) {
			return d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// HasNonFinite reports whether x contains a NaN or ±Inf entry — the
// numerical-fault probe the iterative solvers run between sweeps.
func HasNonFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}
