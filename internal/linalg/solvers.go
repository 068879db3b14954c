package linalg

import (
	"context"
	"fmt"
	"math"

	"ceps/internal/fault"
)

// SolveResult reports how an iterative solve went: the convergence
// diagnostics every solver returns alongside its solution instead of
// silently truncating at maxIter.
type SolveResult struct {
	Iterations int
	Residual   float64 // max-norm of the final update or residual
	Converged  bool
}

// divergenceGrowth is how much the residual may grow past its starting
// value before the solve is declared divergent. Stationary iterations on
// the diagonally dominant systems CePS builds contract monotonically up to
// rounding noise, so a residual orders of magnitude above its start means
// the iteration is feeding on its own error and will never come back.
const divergenceGrowth = 1e8

// checkNumerics classifies a sweep's residual: a NaN/Inf residual or one
// that grew divergenceGrowth-fold past the first sweep's residual is a
// numerical fault.
func checkNumerics(residual, first float64) error {
	if math.IsNaN(residual) || math.IsInf(residual, 0) {
		return fmt.Errorf("%w: residual is %v", fault.ErrDiverged, residual)
	}
	if first > 0 && residual > divergenceGrowth*first && residual > 1 {
		return fmt.Errorf("%w: residual grew from %g to %g", fault.ErrDiverged, first, residual)
	}
	return nil
}

// GaussSeidel solves A x = b with forward Gauss–Seidel sweeps. Converges for
// diagonally dominant systems such as the grounded graph Laplacians used by
// the delivered-current baseline.
func GaussSeidel(a *CSR, b, x0 []float64, tol float64, maxIter int) ([]float64, SolveResult, error) {
	return GaussSeidelCtx(context.Background(), a, b, x0, tol, maxIter)
}

// GaussSeidelCtx is GaussSeidel with per-sweep cancellation checks and
// divergence detection.
func GaussSeidelCtx(ctx context.Context, a *CSR, b, x0 []float64, tol float64, maxIter int) ([]float64, SolveResult, error) {
	if a.Rows() != a.Cols() || len(b) != a.Rows() {
		return nil, SolveResult{}, fmt.Errorf("linalg: GaussSeidel shape mismatch")
	}
	n := a.Rows()
	x := make([]float64, n)
	if x0 != nil {
		copy(x, x0)
	}
	res := SolveResult{}
	var first float64
	for it := 0; it < maxIter; it++ {
		if err := fault.FromContext(ctx); err != nil {
			return x, res, err
		}
		var maxDelta float64
		for r := 0; r < n; r++ {
			cols, vals := a.Row(r)
			s := b[r]
			var d float64
			for i, c := range cols {
				if c == r {
					d = vals[i]
				} else {
					s -= vals[i] * x[c]
				}
			}
			if d == 0 {
				return nil, SolveResult{}, fmt.Errorf("linalg: GaussSeidel zero diagonal at row %d", r)
			}
			nv := s / d
			delta := math.Abs(nv - x[r])
			if math.IsNaN(delta) {
				maxDelta = delta // poisoned iterate: surface NaN, don't skip it
			} else if delta > maxDelta {
				maxDelta = delta
			}
			x[r] = nv
		}
		res.Iterations = it + 1
		res.Residual = maxDelta
		if it == 0 {
			first = maxDelta
		}
		if err := checkNumerics(res.Residual, first); err != nil {
			return x, res, err
		}
		if maxDelta < tol {
			res.Converged = true
			break
		}
	}
	return x, res, nil
}
