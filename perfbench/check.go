package main

import (
	"context"
	"math"
	"slices"
	"time"

	"ceps"
	"ceps/internal/core"
	"ceps/internal/extract"
	"ceps/internal/graph"
	"ceps/internal/rwr"
	"ceps/internal/score"
)

// sameBits reports whether two vectors are Float64bits-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// within reports whether two vectors agree entrywise within tol.
func within(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !(math.Abs(a[i]-b[i]) <= tol) {
			return false
		}
	}
	return true
}

// artifactTol is how far a dense-artifact row may sit from the m-sweep
// iterate: it is the converged fixed point, off by at most c^(m+1)/(1−c)
// per entry, plus rounding of the dense factorization.
func artifactTol(rc ceps.RWRConfig) float64 {
	return math.Pow(rc.C, float64(rc.Iterations+1))/(1-rc.C) + 1e-12
}

// fromArtifact reports whether row i of an answer was read from a dense
// artifact: such rows carry no sweeps, every iterative solve runs at least
// one.
func fromArtifact(res *ceps.Result, i int) bool {
	return i < len(res.RWRDiagnostics) && res.RWRDiagnostics[i].Sweeps == 0
}

// sameRows compares an answer's score rows with reference rows: exactly,
// or within tol for rows the answer read from an artifact. any reports
// whether such a row took part.
func sameRows(res *ceps.Result, R [][]float64, tol float64) (ok, any bool) {
	if len(R) != len(res.R) {
		return false, false
	}
	ok = true
	for i := range R {
		if fromArtifact(res, i) {
			any = true
			ok = ok && within(res.R[i], R[i], tol)
		} else {
			ok = ok && sameBits(res.R[i], R[i])
		}
	}
	return ok, any
}

// sameAnswer compares an engine answer with the plain pipeline's. Where an
// artifact row took part the combined scores may differ within the rows'
// tolerance and the subgraph is left to the replay; everything else must be
// Float64bits-identical.
func sameAnswer(got, want *ceps.Result, tol float64) bool {
	ok, art := sameRows(got, want.R, tol)
	if !ok {
		return false
	}
	if art {
		return within(got.Combined, want.Combined, float64(len(got.R))*tol)
	}
	return sameBits(got.Combined, want.Combined) && sameSubgraph(got.Subgraph, want.Subgraph, nil)
}

// sameSubgraph compares the nodes and key-path edges of a subgraph in
// working-graph ids (mapped through toOrig; nil is the identity) with one in
// original ids.
func sameSubgraph(work, orig *graph.Subgraph, toOrig []int) bool {
	id := func(u int) int {
		if toOrig == nil {
			return u
		}
		return toOrig[u]
	}
	if len(work.Nodes) != len(orig.Nodes) || len(work.PathEdges) != len(orig.PathEdges) {
		return false
	}
	for i, u := range work.Nodes {
		if id(u) != orig.Nodes[i] {
			return false
		}
	}
	for i, e := range work.PathEdges {
		u, v := id(e.U), id(e.V)
		if u > v {
			u, v = v, u
		}
		o := orig.PathEdges[i]
		if u != o.U || v != o.V || math.Float64bits(e.W) != math.Float64bits(o.W) {
			return false
		}
	}
	return true
}

// replayCePS replays one CePS answer through the layers' public functions,
// each under a child span of a "replay" root in the request's trace: the
// partition union (Fast CePS only), the solver build and blocked solve, the
// score combination and EXTRACT. It reports whether every layer reproduced
// the engine's answer.
func replayCePS(ctx context.Context, res *ceps.Result, cfg ceps.Config, pt *ceps.Partitioned, tol float64, rp *replay, trace uint64) (bool, error) {
	rec := rp.rec
	root := rec.id()
	t0 := time.Now()
	child := func(name string) span { return span{Trace: trace, Parent: root, Name: name} }
	ok := true
	if pt != nil && res.Fallback == nil {
		var work *ceps.Graph
		var toOrig []int
		if _, err := rec.timed(child("replay.partition.union"), func() (err error) {
			parts := pt.Partition.PartsContaining(res.Queries)
			work, toOrig, _, err = pt.G.Induced(pt.Partition.NodesInParts(parts))
			return err
		}); err != nil {
			return false, err
		}
		ok = work.N() == res.WorkGraph.N() && work.M() == res.WorkGraph.M() && slices.Equal(toOrig, res.ToOrig)
	}

	g := res.WorkGraph
	var solver *rwr.Solver
	build, err := rec.timed(child("replay.rwr.new_solver"), func() (err error) {
		solver, err = rwr.NewSolver(g, cfg.RWR)
		return err
	})
	if err != nil {
		return false, err
	}
	var R [][]float64
	var diags []rwr.Diagnostics
	solve, err := rec.timed(child("replay.rwr.solve"), func() (err error) {
		R, diags, err = solver.ScoresSetBlockedCtx(ctx, res.WorkQueries, 1)
		return err
	})
	if err != nil {
		return false, err
	}
	rowsOK, _ := sameRows(res, R, tol)
	ok = ok && rowsOK

	var combined []float64
	if _, err := rec.timed(child("replay.score.combine"), func() (err error) {
		combined, err = score.CombineNodes(res.R, res.Combiner)
		return err
	}); err != nil {
		return false, err
	}
	ok = ok && sameBits(combined, res.Combined)

	var ext *extract.Result
	if _, err := rec.timed(child("replay.extract"), func() (err error) {
		q := len(res.WorkQueries)
		ext, err = extract.ExtractCtx(ctx, extract.Input{
			G: g, Queries: res.WorkQueries, R: res.R, Combined: res.Combined,
			K: cfg.EffectiveK(q), Budget: cfg.Budget, MaxPathLen: cfg.MaxPathLen,
		})
		return err
	}); err != nil {
		return false, err
	}
	ok = ok && sameSubgraph(ext.Subgraph, res.Subgraph, res.ToOrig)
	rec.add(span{Trace: trace, ID: root, Name: "replay"}, t0, time.Now())

	rp.noteSolve(build, solve, g, len(res.WorkQueries), diags)
	return ok, nil
}

// replayReplace replays a replacement answer's candidate panel: the solver
// build and one blocked solve over the pool (taken from the plain
// pipeline's full ranking), then each candidate's walk proximity to the
// remaining members, which must match bit for bit.
func replayReplace(ctx context.Context, g *ceps.Graph, plain *core.ReplaceResult, cfg ceps.Config, rp *replay, trace uint64) (bool, error) {
	rec := rp.rec
	root := rec.id()
	t0 := time.Now()
	pool := make([]int, len(plain.Replacements))
	for i, r := range plain.Replacements {
		pool[i] = r.Node
	}
	var solver *rwr.Solver
	build, err := rec.timed(span{Trace: trace, Parent: root, Name: "replay.rwr.new_solver"}, func() (err error) {
		solver, err = rwr.NewSolver(g, cfg.RWR)
		return err
	})
	if err != nil {
		return false, err
	}
	var R [][]float64
	var diags []rwr.Diagnostics
	solve, err := rec.timed(span{Trace: trace, Parent: root, Name: "replay.rwr.solve"}, func() (err error) {
		R, diags, err = solver.ScoresSetBlockedCtx(ctx, pool, 1)
		return err
	})
	if err != nil {
		return false, err
	}
	ok := true
	for i, r := range plain.Replacements {
		var prox float64
		for _, m := range plain.Remaining {
			prox += R[i][m]
		}
		prox /= float64(len(plain.Remaining))
		ok = ok && math.Float64bits(prox) == math.Float64bits(r.RWRProximity)
	}
	rec.add(span{Trace: trace, ID: root, Name: "replay"}, t0, time.Now())

	rp.noteSolve(build, solve, g, len(pool), diags)
	return ok, nil
}

// noteSolve adds one replayed solver build and panel solve to the layer
// totals. The operation counts are computed from the graph and the panel
// width, not counted: per sweep, every stored matrix entry is a
// multiply-add per column, plus the restart term per row and column; the
// compulsory traffic is the CSR matrix (value and column index per entry,
// one row pointer per row) plus reading and writing one n×w panel.
func (rp *replay) noteSolve(build, solve time.Duration, g *ceps.Graph, width int, diags []rwr.Diagnostics) {
	n, nnz, w := float64(g.N()), 2*float64(g.M()), float64(width)
	var sweeps float64
	for _, d := range diags {
		sweeps += float64(d.Sweeps)
	}
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.builds++
	rp.buildTime += build
	rp.solves++
	rp.solveTime += solve
	rp.rows += sweeps * n
	rp.flops += 2 * w * (nnz + n)
	rp.bytes += 16*nnz + 8*(n+1) + 16*n*w
}
