package rwr

import (
	"math"

	"ceps/internal/linalg"
)

// This file is the solver's reversibility certificate. On an undirected
// graph every normalization the package offers satisfies
//
//	W̃ᵀ = X · W̃ · X⁻¹        for a diagonal X:
//
// X_u = 1 for Eq. 20, X_u = 1/s_u for Eq. 5 and X_u = d_u^α/s_u for
// Eq. 10, where s_u is column u's (penalized) sum. The m-sweep iterate is
// a polynomial in W̃ applied to e_q, so the iterate itself — not only the
// fixed point — obeys
//
//	r(c, m) = (X_c / X_m) · r(m, c).
//
// One walk from m therefore bounds r(c, m) for every c. The bound is
// rigorous for the iterate as computed in floating point: ε covers the
// rounding of both walks, of the matrix entries and of the X ratio, and η
// covers subnormal rounding (DESIGN.md §6.7 has the derivation). Callers
// use it to prove which candidates cannot matter, then solve the rest
// exactly — the certificate never replaces a score.

const (
	// unitRoundoff is u = 2⁻⁵³, the relative rounding error of one IEEE
	// double operation on normal numbers.
	unitRoundoff = 0x1p-53
	// subnormalULP is the smallest subnormal, 2⁻¹⁰⁷⁴: twice the absolute
	// rounding error of a product whose result is subnormal.
	subnormalULP = 0x1p-1074
)

// gamma is γ_j = ju / (1 − ju), the classic bound on j accumulated
// relative roundings.
func gamma(j int) float64 {
	ju := float64(j) * unitRoundoff
	return ju / (1 - ju)
}

// Reversibility is a solver's certificate for the identity above: for any
// nodes c and m, the computed m-sweep score r(c, m) lies in
//
//	[t·(1 − ε) − η, t·(1 + ε) + η],   t = (X_c / X_m) · r(m, c),
//
// where r(m, c) is the same solver's computed score. It is immutable and
// safe for concurrent use.
type Reversibility struct {
	// x holds X_u, or 0 for a node with no X (an isolated node: its
	// column of W̃ is empty).
	x        []float64
	eps, eta float64
}

// Reversibility returns the solver's certificate; ok is false when the
// solver cannot give one: Tol > 0 (columns stop at different sweeps, so no
// a-priori bound exists), a normalization value fell below the normal
// range, or the bound would be vacuous.
func (s *Solver) Reversibility() (rv *Reversibility, ok bool) {
	return s.rev, s.rev != nil
}

// Covers reports whether node u has an X, i.e. is not isolated.
func (rv *Reversibility) Covers(u int) bool { return rv.x[u] > 0 }

// Bound returns an interval [lo, hi] that contains the computed score
// r(c, m), given rmc, the computed score r(m, c). ok is false when either
// node has no X or the ratio X_c/X_m leaves the normal range.
func (rv *Reversibility) Bound(c, m int, rmc float64) (lo, hi float64, ok bool) {
	xc, xm := rv.x[c], rv.x[m]
	if xc == 0 || xm == 0 {
		return 0, 0, false
	}
	ratio := xc / xm
	if ratio < 0x1p-1022 || math.IsInf(ratio, 0) {
		return 0, 0, false
	}
	t := ratio * rmc
	if math.IsInf(t, 0) {
		return 0, 0, false
	}
	return max(0, t*(1-rv.eps)-rv.eta), t*(1+rv.eps) + rv.eta, true
}

// newReversibility derives the certificate for the transition matrix
// trans built under cfg. x holds X_u computed from the very values the
// entries were built from (0 for isolated nodes), and entryRoundings is
// the number of roundings between each stored entry and its exactly
// reversible value (0 when the stored matrix is itself exactly
// symmetric). It returns nil when no bound can be given.
func newReversibility(trans *linalg.CSR, x []float64, entryRoundings int, cfg Config) *Reversibility {
	if cfg.Tol > 0 {
		return nil
	}
	n := trans.Rows()
	k, rowMax := 0, 0.0
	colSum := make([]float64, n)
	for r := 0; r < n; r++ {
		cols, vals := trans.Row(r)
		k = max(k, len(cols))
		var sum float64
		for i, c := range cols {
			sum += vals[i]
			colSum[c] += vals[i]
		}
		rowMax = max(rowMax, sum)
	}
	xMin, xMax := math.Inf(1), 0.0
	for _, v := range x {
		if v == 0 {
			continue
		}
		if v < 0x1p-1022 || math.IsInf(v, 0) || math.IsNaN(v) {
			return nil
		}
		xMin, xMax = min(xMin, v), max(xMax, v)
	}
	colMax := 0.0
	for _, v := range colSum {
		colMax = max(colMax, v)
	}

	// Relative part. One sweep rounds each nonnegative term at most k+2
	// times (its product, k−1 additions, the scale by c, the restart add),
	// so m sweeps stay within (1 ± γ_{k+2})^m of the exact iterate, and the
	// stored entries within (1 ± ρ)^m of the reversible matrix's. Both
	// walks contribute, hence K/K_l. ψ² covers the four roundings of t
	// (two X values, their ratio, the product) and the three of each
	// interval endpoint.
	g, rho := gamma(k+2), gamma(entryRoundings)
	m := float64(cfg.Iterations)
	logK := m * (math.Log1p(g) + math.Log1p(rho) - math.Log1p(-g) - math.Log1p(-rho))
	logPsi := 4 * (math.Log1p(unitRoundoff) - math.Log1p(-unitRoundoff))
	eps := math.Expm1(logK+2*logPsi) * (1 + 1e-6) // the factor covers evaluating ε itself
	if !(eps < 1) {
		return nil
	}

	// Absolute part. Each sweep adds at most a = (k+2)·2⁻¹⁰⁷⁴ per entry
	// from subnormal products; earlier errors grow by at most
	// λ = (1+γ_{k+2})·c·‖W̃‖ per sweep, in the ∞-norm or (summed over n
	// entries) in the 1-norm, whichever bounds tighter.
	a := float64(k+2) * subnormalULP
	grow := func(norm float64) float64 {
		lambda := (1 + g) * cfg.C * norm * (1 + gamma(k))
		return m * math.Pow(max(1, lambda), m-1)
	}
	e := a * min(float64(n)*grow(colMax), grow(rowMax))
	eta := 2*e*(1+2*(xMax/xMin)*(1+gamma(4))) + 0x1p-1068
	if math.IsInf(eta, 0) || math.IsNaN(eta) {
		return nil
	}
	return &Reversibility{x: x, eps: eps, eta: eta}
}
