package rwr

import (
	"context"
	"fmt"
	"math"

	"ceps/internal/fault"
	"ceps/internal/linalg"
	"ceps/internal/obs"
)

// getVec checks an n-vector out of the solve-buffer pool, allocating when
// the pool is empty (works for zero-value Solvers built in tests, too).
func (s *Solver) getVec() *[]float64 {
	if v := s.vecs.Get(); v != nil {
		return v.(*[]float64)
	}
	b := make([]float64, s.n)
	return &b
}

// putVec returns a vector to the pool.
func (s *Solver) putVec(v *[]float64) {
	s.vecs.Put(v)
}

// getPanel checks an n×q panel out of the pool, reusing a pooled panel's
// backing array when its capacity fits (Reset) and allocating otherwise.
// The panel's contents are unspecified; callers zero or overwrite it.
func (s *Solver) getPanel(q int) *linalg.Panel {
	if v := s.panels.Get(); v != nil {
		p := v.(*linalg.Panel)
		if p.Reset(s.n, q) {
			return p
		}
		// Too small for this query set: drop it and allocate fresh (the
		// larger panel then re-enters the pool and serves future sets).
	}
	return linalg.NewPanel(s.n, q)
}

// putPanel returns a panel to the pool.
func (s *Solver) putPanel(p *linalg.Panel) {
	s.panels.Put(p)
}

// ScoresSetBlockedCtx computes the score matrix R (one row per query,
// R[i][j] = r(q_i, j)) by running all Q power iterations in lockstep on an
// n×Q panel: each sweep is one fused pass (linalg.Sweep) that streams the
// transition matrix once for every query instead of once per query, and
// scales, restarts and takes residuals as it stores each row. The panel
// sweeps serially on the calling goroutine: an engine spreads its panels
// over cores through the solve pool (WithWorkers), one panel per slot.
// The int parameter is unused; it stays until perfbench, which passes 1,
// drops it.
//
// Per column the sweep performs the exact operation sequence of ScoresCtx —
// multiply in nonzero order, scale by c, add the restart mass, max-norm
// residual with NaN-propagating comparison — so every score vector is
// bit-identical to the corresponding single-query solve. Diagnostics are
// per query; the NaN/Inf and divergence guards abort with the same errors
// as ScoresCtx; when Tol is set, converged columns are frozen (masked out
// of the residual bookkeeping and copied forward unchanged) while the
// rest keep sweeping, matching the scalar early stop exactly.
func (s *Solver) ScoresSetBlockedCtx(ctx context.Context, queries []int, _ int) ([][]float64, []Diagnostics, error) {
	if len(queries) == 0 {
		return nil, nil, fmt.Errorf("%w: empty query set", fault.ErrBadQuery)
	}
	for _, q := range queries {
		if q < 0 || q >= s.n {
			return nil, nil, fmt.Errorf("%w: query node %d out of range [0,%d)", fault.ErrBadQuery, q, s.n)
		}
	}
	nq := len(queries)

	cur := s.getPanel(nq)
	next := s.getPanel(nq)
	defer s.putPanel(cur)
	defer s.putPanel(next)
	cur.Zero()
	for j, q := range queries {
		cur.Set(q, j, 1) // column j starts at the unit vector e_{q_j}
	}
	// Chaos hooks, mirroring ScoresCtx: the NaN arm poisons column 0's
	// start vector so the per-column non-finite guard must surface
	// ErrDiverged.
	if inj := fault.ActiveInjector(); inj != nil {
		if err := inj.Delay(ctx, fault.InjectSolveDelay); err != nil {
			return nil, nil, err
		}
		if err := inj.Err(fault.InjectSolveError); err != nil {
			return nil, nil, err
		}
		if inj.Fire(fault.InjectSolveNaN) {
			cur.Set(queries[0], 0, math.NaN())
		}
	}

	restart := 1 - s.cfg.C
	tol := s.cfg.Tol
	if tol <= 0 {
		tol = defaultConvergedTol
	}
	diags := make([]Diagnostics, nq)
	firsts := make([]float64, nq)
	frozen := make([]bool, nq)
	residuals := make([]float64, nq)
	nonFinite := make([]bool, nq)
	active := nq
	// As in ScoresCtx, the per-sweep trace event is gated on Recording so
	// the untraced lockstep loop pays one pointer check per iteration.
	span := obs.SpanFromContext(ctx)

	sweep := linalg.NewSweep(s.trans, queries, s.cfg.C, restart)

	for it := 0; it < s.cfg.Iterations && active > 0; it++ {
		if err := fault.FromContext(ctx); err != nil {
			return nil, nil, err
		}
		// One fused sweep: next = c·W̃·cur + (1−c)·E over all columns at
		// once, with every column's residual and non-finite flag folded in
		// as its rows are stored. Frozen columns are recomputed too —
		// cheaper than masking inside the kernel — and then overwritten
		// with their converged values; their residuals are ignored.
		sweep.Run(next, cur, residuals, nonFinite)
		for j := range queries {
			if frozen[j] {
				next.CopyColFrom(cur, j)
			}
		}
		for j := range queries {
			if frozen[j] {
				continue
			}
			diags[j].Sweeps = it + 1
			diags[j].Residual = residuals[j]
		}
		if span.Recording() {
			// One event per lockstep iteration. advanced counts the columns
			// this sweep moved (so summing advanced over a trace's sweep
			// events reproduces StageTimings.SolveSweeps), max_residual is
			// taken over those same columns.
			maxRes := 0.0
			for j := range queries {
				if !frozen[j] && residuals[j] > maxRes {
					maxRes = residuals[j]
				}
			}
			span.AddEvent("sweep", obs.Str("kernel", "blocked"),
				obs.Int("sweep", it+1), obs.F64("max_residual", maxRes),
				obs.Int("frozen", nq-active), obs.Int("advanced", active))
		}
		cur, next = next, cur
		for j, q := range queries {
			if frozen[j] {
				continue
			}
			res := diags[j].Residual
			if math.IsNaN(res) || math.IsInf(res, 0) || nonFinite[j] {
				return nil, nil, fmt.Errorf("%w: non-finite scores after sweep %d of walk from node %d", fault.ErrDiverged, diags[j].Sweeps, q)
			}
			if it == 0 {
				firsts[j] = res
			} else if firsts[j] > 0 && res > 1e8*firsts[j] && res > 1 {
				return nil, nil, fmt.Errorf("%w: walk from node %d: residual grew from %g to %g", fault.ErrDiverged, q, firsts[j], res)
			}
			// Same opt-in early stop as ScoresCtx: the column that just
			// converged holds its post-sweep value from here on while the
			// remaining columns keep iterating.
			if s.cfg.Tol > 0 && res < s.cfg.Tol {
				frozen[j] = true
				active--
			}
		}
	}

	R := make([][]float64, nq)
	for j := range queries {
		diags[j].Converged = diags[j].Residual < tol
		R[j] = cur.Col(j)
	}
	return R, diags, nil
}
