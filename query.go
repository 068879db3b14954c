package ceps

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ceps/internal/core"
	"ceps/internal/obs"
)

// This file is the unified query surface of the Engine: Do and DoBatch
// answer one query set / many query sets under per-call variadic
// QueryOptions, so new knobs (deadlines, degradation opt-outs, coalescing
// hints) stop multiplying method variants. The HTTP /v1/query and
// /v1/batch endpoints map onto it field-for-field.

// QueryOption adjusts one Do or DoBatch call without touching the engine's
// stored configuration. Options are applied in order; the last write wins.
type QueryOption func(*queryOptions)

// queryOptions accumulates per-call option state. The zero value means
// "exactly the engine's configured behavior".
type queryOptions struct {
	timeout     time.Duration
	noDegrade   bool
	coalesce    *bool
	k           int
	kSet        bool
	budget      int
	concurrency int
}

// WithQueryTimeout arms a deadline on the call. In DoBatch the timeout is
// per query set — a set that times out reports ErrDeadlineExceeded in its
// item without affecting the others. d ≤ 0 means no extra deadline beyond
// the caller's context.
func WithQueryTimeout(d time.Duration) QueryOption {
	return func(qo *queryOptions) { qo.timeout = d }
}

// WithNoDegrade makes the call fail with ErrUnavailable instead of
// accepting a reduced-fidelity answer when the resilience layer's circuit
// breaker is open. Without resilience it is a no-op (there is no degraded
// path to refuse).
func WithNoDegrade() QueryOption {
	return func(qo *queryOptions) { qo.noDegrade = true }
}

// WithCoalesceHint opts the call in (true) or out (false) of the engine's
// cross-request solve coalescer. The hint is advisory in the way all
// scheduling knobs here are: it never changes answers — coalesced and
// direct solves are bit-identical — and opting in does nothing on an
// engine built without WithCoalescing.
func WithCoalesceHint(on bool) QueryOption {
	return func(qo *queryOptions) { qo.coalesce = &on }
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

// WithBatchConcurrency bounds how many query sets a DoBatch keeps in
// flight at once (0 = the engine's worker bound). Individual solves are
// always additionally bounded by the engine's solve pool. Do ignores it.
func WithBatchConcurrency(n int) QueryOption {
	return func(qo *queryOptions) { qo.concurrency = n }
}

func resolveQueryOptions(opts []QueryOption) queryOptions {
	var qo queryOptions
	for _, opt := range opts {
		if opt != nil {
			opt(&qo)
		}
	}
	return qo
}

// apply folds the per-call overrides into a config snapshot.
func (qo queryOptions) apply(cfg Config) Config {
	if qo.kSet {
		cfg.K = qo.k
	}
	if qo.budget > 0 {
		cfg.Budget = qo.budget
	}
	if qo.coalesce != nil {
		cfg.NoCoalesce = !*qo.coalesce
	}
	return cfg
}

// Do answers one center-piece subgraph query for the given query nodes —
// Fast CePS when fast mode is enabled, the cached full-graph matrix
// otherwise — under the engine's current configuration adjusted by the
// per-call options. It is the single canonical query entry point. ctx is
// checked at every power-iteration sweep and EXTRACT step, and a panic
// escaping the pipeline surfaces as an error wrapping ErrInternal.
func (e *Engine) Do(ctx context.Context, queries []int, opts ...QueryOption) (res *Result, err error) {
	defer e.recoverToError(&err)
	qo := resolveQueryOptions(opts)
	cfg, pt := e.snapshot()
	if qo.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, qo.timeout)
		defer cancel()
	}
	return serve(e, ctx, e.queryCall(qo.apply(cfg), pt, queries, qo.noDegrade))
}

// DoBatch answers many query sets concurrently against one
// config/partition snapshot, sharing the engine's score cache, solve pool
// and (when enabled) coalescer: overlapping sets pay each member's solve
// once, and concurrent misses may ride shared blocked panels. Items are
// returned in input order; per-set failures — including per-set deadlines
// and recovered panics — land in the item's Err without aborting the
// batch. Canceling ctx aborts in-flight sets at their next iteration
// boundary. All options except WithBatchConcurrency apply to each set
// individually.
func (e *Engine) DoBatch(ctx context.Context, querySets [][]int, opts ...QueryOption) []BatchItem {
	qo := resolveQueryOptions(opts)
	cfg, pt := e.snapshot()
	cfg = qo.apply(cfg)
	items := make([]BatchItem, len(querySets))
	conc := qo.concurrency
	if conc <= 0 {
		conc = e.pool.Size()
	}
	if conc > len(querySets) {
		conc = len(querySets)
	}
	if conc < 1 {
		conc = 1
	}
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	for i := range querySets {
		items[i].Queries = append([]int(nil), querySets[i]...)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ictx := ctx
			if qo.timeout > 0 {
				var cancel context.CancelFunc
				ictx, cancel = context.WithTimeout(ctx, qo.timeout)
				defer cancel()
			}
			items[i].Result, items[i].Err = func() (res *Result, err error) {
				defer e.recoverToError(&err)
				return serve(e, ictx, e.queryCall(cfg, pt, items[i].Queries, qo.noDegrade))
			}()
		}(i)
	}
	wg.Wait()
	for i := range items {
		switch {
		case items[i].Err == nil:
			e.metrics.batchOK.Inc()
		case errors.Is(items[i].Err, ErrDeadlineExceeded) || errors.Is(items[i].Err, context.DeadlineExceeded):
			e.metrics.batchDeadline.Inc()
		default:
			e.metrics.batchErr.Inc()
		}
	}
	return items
}

// queryCall describes one center-piece query to the request funnel: Do,
// each DoBatch item and QueryAutoK are this call. pt is the Fast CePS
// state of the snapshot (nil for a full-graph query). Its request counter
// and slow-log path are the execution path (full, fast or fast_fallback),
// its latency ceps_query_duration_seconds, and its rows are counted
// against the work graph the pipeline ran on.
func (e *Engine) queryCall(cfg Config, pt *Partitioned, queries []int, noDegrade bool) call[*Result] {
	fast := pt != nil
	return call[*Result]{
		span:      "query",
		attrs:     []obs.Attr{obs.Int("queries", len(queries)), obs.Int("k", cfg.EffectiveK(len(queries)))},
		queries:   queries,
		cfg:       cfg,
		noDegrade: noDegrade,
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
