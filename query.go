package ceps

import (
	"context"
	"fmt"

	"ceps/internal/core"
	"ceps/internal/obs"
)

// This file is the unified query surface of the Engine: Do answers one
// query set under per-call variadic QueryOptions that override pipeline
// parameters (k, budget). A call's deadline is its ctx's deadline; whether
// it may degrade and whether its solves may coalesce are settings of the
// engine (ResilienceOptions.NoDegrade, WithCoalescing). A batch is a set
// of concurrent Do calls: the solve pool, score cache and coalescer
// already share work between them. The HTTP /v1/query and /v1/batch
// endpoints map onto it field-for-field.

// QueryOption adjusts one Do call without touching the engine's stored
// configuration. Options are applied in order; the last write wins.
type QueryOption func(*queryOptions)

// queryOptions accumulates per-call option state. The zero value means
// "exactly the engine's configured behavior".
type queryOptions struct {
	k      int
	kSet   bool
	budget int
}

// WithK overrides the K_softAND coefficient for the call (0 means an AND
// query, K = Q).
func WithK(k int) QueryOption {
	return func(qo *queryOptions) { qo.k, qo.kSet = k, true }
}

// WithQueryBudget overrides the output budget b (maximum non-query nodes
// in the subgraph) for the call. ≤ 0 keeps the engine's configured budget.
func WithQueryBudget(b int) QueryOption {
	return func(qo *queryOptions) {
		if b > 0 {
			qo.budget = b
		}
	}
}

// Do answers one center-piece subgraph query for the given query nodes —
// Fast CePS when partition state is installed (SetPartitioned), the cached
// full-graph matrix otherwise — under the engine's current configuration
// adjusted by the per-call options. It is the single canonical query entry
// point. ctx bounds the call: it is checked at every power-iteration sweep
// and EXTRACT step, and a panic escaping the pipeline surfaces as an error
// wrapping ErrInternal.
//
// To answer many query sets, call Do from concurrent goroutines: the
// engine's solve pool bounds the solves, and overlapping sets share cached
// solves and (with WithCoalescing) blocked panels. Each call takes its own
// config and partition snapshot, so a Reconfigure or SetPartitioned racing
// the batch may split it between the old and new state.
func (e *Engine) Do(ctx context.Context, queries []int, opts ...QueryOption) (res *Result, err error) {
	defer e.recoverToError(&err)
	var qo queryOptions
	for _, opt := range opts {
		if opt != nil {
			opt(&qo)
		}
	}
	cfg, pt := e.snapshot()
	if qo.kSet {
		cfg.K = qo.k
	}
	if qo.budget > 0 {
		cfg.Budget = qo.budget
	}
	return serve(e, ctx, e.queryCall(cfg, pt, queries))
}

// queryCall describes one center-piece query to the request funnel: Do
// and QueryAutoK are this call. pt is the Fast CePS state of the snapshot
// (nil for a full-graph query). Its request counter and slow-log path are
// the execution path (full, fast or fast_fallback), its latency
// ceps_query_duration_seconds, and its rows are counted against the work
// graph the pipeline ran on.
func (e *Engine) queryCall(cfg Config, pt *Partitioned, queries []int) call[*Result] {
	fast := pt != nil
	return call[*Result]{
		span:    "query",
		attrs:   []obs.Attr{obs.Int("queries", len(queries)), obs.Int("k", cfg.EffectiveK(len(queries)))},
		queries: queries,
		cfg:     cfg,
		run: func(ctx context.Context, cfg Config) (*Result, error) {
			if len(queries) == 0 {
				return nil, fmt.Errorf("%w: no query nodes given", ErrBadQuery)
			}
			if fast {
				// A degenerate union falls back to the cached full-graph
				// runner, built on the first fallback if Prepare has not.
				sv := e.serving()
				sv.FullGraph = e.runnerFor
				return pt.CePSServingCtx(ctx, queries, cfg, sv)
			}
			runner, err := e.runnerFor(cfg.RWR)
			if err != nil {
				return nil, err
			}
			return runner.QueryCtx(ctx, queries, cfg)
		},
		settle: func(res *Result, span *obs.Span, degraded *core.Degradation) outcome {
			o := outcome{latency: e.metrics.durTotal, path: queryPath(res, fast)}
			o.count = e.metrics.queryCounter(o.path)
			span.SetAttr(obs.Str("path", o.path))
			if res == nil {
				return o
			}
			res.TraceID = span.TraceID()
			if degraded != nil {
				res.Degraded = degraded
			}
			o.stages, o.nodes, o.degraded = &res.Stages, res.WorkGraph.N(), res.Degraded
			if res.Fallback != nil {
				o.fallback = res.Fallback.Reason
				span.SetAttr(obs.Str("fallback", o.fallback))
			}
			return o
		},
	}
}
