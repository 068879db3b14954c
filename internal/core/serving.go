package core

import (
	"context"
	"sync/atomic"
	"time"

	"ceps/internal/obs"
	"ceps/internal/rwr"
)

// Serving bundles the shared serving-layer state an Engine threads through
// the query paths: the per-source score cache, the bounded solve pool, the
// coalescer, the precompute tier and the full-graph runner Fast CePS falls
// back to. The zero value is the plain path: every Step 1 is one blocked
// panel, uncached and unbounded by a pool.
type Serving struct {
	// Cache holds per-source RWR score vectors keyed by source node and a
	// space fingerprint covering the walk config and work-graph identity.
	Cache *rwr.ScoreCache
	// Pool bounds how many random-walk solves run concurrently across all
	// queries and batches sharing it.
	Pool *rwr.Pool
	// Coalescer, when non-nil, merges concurrent cache misses into shared
	// blocked solve panels in front of the pool. It requires a Cache (the
	// fan-out rides the single-flight entries) and is ignored without one.
	Coalescer *rwr.Coalescer
	// Artifacts, when non-nil, is the persisted precompute tier consulted
	// between the cache and the iterative solver: cache misses whose key
	// space is bound to an on-disk artifact (see BindArtifacts) become one
	// row read instead of a power iteration.
	Artifacts rwr.ArtifactReader
	// FullGraph, when non-nil, returns a full-graph Runner for a walk
	// config — an engine's cached one. Fast CePS answers a degenerate-union
	// fallback on it (see Partitioned.CePSServingCtx); nil solves the
	// fallback on a query-local solver.
	FullGraph func(rwr.Config) (*Runner, error)
}

// solveStep runs Step 1 for a query set on solver: it opens the solve
// span, resolves the score matrix through sv — the zero Serving is the
// plain path, one blocked panel with no cache, pool, coalescer or
// artifacts — and fills the Step 1 fields of st. space is the cache key
// space of solver's graph. uphill is serveStep's.
func solveStep(ctx context.Context, solver *rwr.Solver, queries []int, sv Serving, space uint64, st *StageTimings, uphill func([]float64) []uint64) ([][]float64, []rwr.Diagnostics, [][]uint64, error) {
	solveCtx, span := obs.StartSpan(ctx, "solve")
	span.SetAttr(obs.Int("queries", len(queries)), obs.Int("nodes", solver.N()))
	var stats rwr.ServeStats
	R, diags, up, err := serveStep(solveCtx, solver, queries, sv, space, st, &stats, uphill)
	endSolve(span, st, stats, err)
	return R, diags, up, err
}

// serveStep resolves queries through sv under the caller's solve span and
// folds the call into st and stats: Solve and SolveSweeps add up across
// calls, as stats does (see rwr.ServeStats.Add). uphill, non-nil only
// when EXTRACT reads the rows, builds the uphill bitmask the cache keeps
// beside a vector it serves more than once (rwr.ServeOptions.Uphill); up
// holds the bitmasks of the rows that have one.
func serveStep(ctx context.Context, solver *rwr.Solver, queries []int, sv Serving, space uint64, st *StageTimings, stats *rwr.ServeStats, uphill func([]float64) []uint64) (R [][]float64, diags []rwr.Diagnostics, up [][]uint64, err error) {
	opt := rwr.ServeOptions{Artifacts: sv.Artifacts, Coalesce: sv.Coalescer, Uphill: uphill}
	start := time.Now()
	R, diags, up, s, err := solver.ScoresSetServingCtx(ctx, queries, sv.Cache, space, sv.Pool, opt)
	st.Solve += time.Since(start)
	if err != nil {
		return nil, nil, nil, err
	}
	stats.Add(s)
	st.SolveSweeps += sumSweeps(diags)
	return R, diags, up, nil
}

// endSolve closes a solve span: on success it fills the kernel, cache and
// coalescer fields of st from the summed stats of the span's serveStep
// calls, and records them on the span with one coalesce_wait event.
func endSolve(span *obs.Span, st *StageTimings, stats rwr.ServeStats, err error) {
	if err != nil {
		span.SetError(err)
		span.End()
		return
	}
	st.SolveKernel = solveKernel(stats)
	st.CacheHits, st.CacheMisses, st.ArtifactHits = stats.Hits, stats.Misses, stats.ArtifactHits
	st.CoalescePanelWidth, st.CoalesceWait = stats.CoalescedWidth, stats.CoalesceWait
	span.SetAttr(obs.Str("kernel", st.SolveKernel), obs.Int("sweeps", st.SolveSweeps),
		obs.Int("cache_hits", stats.Hits), obs.Int("cache_misses", stats.Misses),
		obs.Int("artifact_hits", stats.ArtifactHits))
	if stats.CoalescedWidth > 0 {
		span.AddEvent("coalesce_wait",
			obs.Int("panel_width", stats.CoalescedWidth),
			obs.F64("wait_ms", 1e3*stats.CoalesceWait.Seconds()))
	}
	span.End()
}

// partitionedID hands each PrePartition-built state a unique non-zero
// identity, so cached vectors solved on one partition's induced unions can
// never be confused with another's (even when the part-id sets coincide).
var partitionedID atomic.Uint64

// fullGraphSpace is the cache key space for full-graph solves under cfg.
// Graph identity is implicit: a cache is owned by one Engine over one
// graph, and unions (the only other solve target) always hash a non-zero
// partition identity.
func fullGraphSpace(cfg rwr.Config) uint64 {
	return rwr.Space(cfg.Fingerprint(), 0, nil)
}

// unionSpace is the cache key space for solves on the induced union of the
// given parts of a specific partitioned state. Node ids inside a union are
// deterministic for a fixed partition and part set (Induced assigns them
// in sorted original-id order), which is what makes per-source caching
// across queries sound.
func unionSpace(cfg rwr.Config, ptID uint64, parts []int) uint64 {
	return rwr.Space(cfg.Fingerprint(), ptID, parts)
}
