package rwr

import (
	"fmt"

	"ceps/internal/linalg"
)

// PreSolver implements the §6 precomputation strategy the paper describes
// before settling on pre-partitioning: solve Eq. 12 once by materializing
// A = (I − c·W̃)⁻¹, after which every query is a single column read scaled
// by (1 − c) — "computed on-line nearly real-time".
//
// The trade-off the paper calls out is exactly why Fast CePS exists: A is
// a dense N×N matrix, "a heavy burden when N is big". PreSolver therefore
// refuses graphs beyond a configurable node limit. It serves no query: its
// rows are the converged fixed point, up to c^(m+1)/(1−c) per entry away
// from the m-sweep iterate every serving path returns. It exists as the
// closed-form reference the ablation benchmarks and the tests compare the
// iterative solver against.
type PreSolver struct {
	n   int
	c   float64
	inv *linalg.Dense // (I − c·W̃)⁻¹
}

// DefaultPreSolveLimit is the largest node count NewPreSolver accepts by
// default; the inverse needs 8·N² bytes (≈ 200 MB at N = 5000).
const DefaultPreSolveLimit = 5000

// NewPreSolver materializes the inverse for the solver's graph and
// configuration. maxN ≤ 0 means DefaultPreSolveLimit. The inverse is
// built serially through linalg.Dense.Inverse: O(N³), on one core.
func NewPreSolver(s *Solver, maxN int) (*PreSolver, error) {
	if maxN <= 0 {
		maxN = DefaultPreSolveLimit
	}
	if s.n > maxN {
		return nil, fmt.Errorf("rwr: precomputing a %d-node inverse exceeds the %d-node limit (use Fast CePS instead)", s.n, maxN)
	}
	a := linalg.NewDense(s.n, s.n)
	for r := 0; r < s.n; r++ {
		cols, vals := s.trans.Row(r)
		for i, c := range cols {
			a.Set(r, c, -s.cfg.C*vals[i])
		}
		a.Add(r, r, 1)
	}
	inv, err := a.Inverse()
	if err != nil {
		return nil, fmt.Errorf("rwr: I − c·W̃ is singular: %w", err)
	}
	return &PreSolver{n: s.n, c: s.cfg.C, inv: inv}, nil
}

// N returns the number of nodes.
func (p *PreSolver) N() int { return p.n }

// Scores returns r(q, ·) = (1 − c) · A · e_q, i.e. column q of A scaled by
// the restart probability. O(N) per query.
func (p *PreSolver) Scores(q int) ([]float64, error) {
	if q < 0 || q >= p.n {
		return nil, fmt.Errorf("rwr: query node %d out of range [0,%d)", q, p.n)
	}
	out := make([]float64, p.n)
	restart := 1 - p.c
	for j := 0; j < p.n; j++ {
		out[j] = restart * p.inv.At(j, q)
	}
	return out, nil
}

// ScoresSet returns the score matrix for a query set, one row per query.
func (p *PreSolver) ScoresSet(queries []int) ([][]float64, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("rwr: empty query set")
	}
	R := make([][]float64, len(queries))
	for i, q := range queries {
		r, err := p.Scores(q)
		if err != nil {
			return nil, err
		}
		R[i] = r
	}
	return R, nil
}

// MemoryBytes reports the approximate footprint of the stored inverse —
// the "heavy burden" §6 warns about.
func (p *PreSolver) MemoryBytes() int64 {
	return int64(p.n) * int64(p.n) * 8
}
