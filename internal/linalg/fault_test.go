package linalg

import (
	"context"
	"errors"
	"math"
	"testing"

	"ceps/internal/fault"
)

// offDominant is a symmetric system whose off-diagonal dwarfs the diagonal:
// Gauss–Seidel amplifies its error with every sweep, so the solver must
// detect the fault rather than return garbage.
func offDominant(t *testing.T) (*CSR, []float64) {
	t.Helper()
	a, err := NewCSR(2, 2, []Triple{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 10},
		{Row: 1, Col: 0, Val: 10}, {Row: 1, Col: 1, Val: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a, []float64{1, 1}
}

func TestGaussSeidelDetectsDivergence(t *testing.T) {
	a, b := offDominant(t)
	_, res, err := GaussSeidel(a, b, nil, 1e-12, 500)
	if !errors.Is(err, fault.ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
	if res.Iterations >= 500 {
		t.Errorf("divergence detected only after all %d sweeps", res.Iterations)
	}
}

func TestSolversRejectNaNInput(t *testing.T) {
	a, err := NewCSR(2, 2, []Triple{
		{Row: 0, Col: 0, Val: 4}, {Row: 0, Col: 1, Val: 1},
		{Row: 1, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{math.NaN(), 1}
	for name, solve := range map[string]func() error{
		"gauss-seidel": func() error { _, _, err := GaussSeidel(a, b, nil, 1e-10, 50); return err },
	} {
		if err := solve(); !errors.Is(err, fault.ErrDiverged) {
			t.Errorf("%s with NaN rhs: err = %v, want ErrDiverged", name, err)
		}
	}
}

func TestSolversHonorCancellation(t *testing.T) {
	a, err := NewCSR(2, 2, []Triple{
		{Row: 0, Col: 0, Val: 4}, {Row: 0, Col: 1, Val: 1},
		{Row: 1, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, solve := range map[string]func() error{
		"gauss-seidel": func() error { _, _, err := GaussSeidelCtx(ctx, a, b, nil, 1e-10, 50); return err },
	} {
		err := solve()
		if !errors.Is(err, fault.ErrCanceled) {
			t.Errorf("%s: err = %v, want ErrCanceled", name, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v should also satisfy context.Canceled", name, err)
		}
	}
}

func TestSolveResultConvergedVerdict(t *testing.T) {
	a, err := NewCSR(2, 2, []Triple{
		{Row: 0, Col: 0, Val: 4}, {Row: 0, Col: 1, Val: 1},
		{Row: 1, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2}
	_, res, err := GaussSeidel(a, b, nil, 1e-10, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("diagonally dominant solve should converge; residual %g after %d sweeps", res.Residual, res.Iterations)
	}
	// Starved of iterations, the same system must report the truncation.
	_, res, err = GaussSeidel(a, b, nil, 1e-10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("single-sweep solve should not report Converged")
	}
}
