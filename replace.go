package ceps

import (
	"context"
	"fmt"
	"time"

	"ceps/internal/bipartite"
	"ceps/internal/core"
	"ceps/internal/fault"
	"ceps/internal/obs"
	"ceps/internal/resilience"
)

// This file is the serving surface for the title paper's own workload,
// Subteam Replacement: Engine.ReplaceSubteam answers "who should fill in
// for the members leaving this team?" with a ranked candidate list, scored
// by RWR proximity to the remaining team (walks resolved through the
// cache/pool/coalescer like every other query type: the remaining
// members' walks certify which candidates can reach the top N, and only
// those candidates' walks are solved) blended with structural overlap
// against the departed members. The CLI `replace` verb
// and POST /v1/replace map onto this surface field-for-field.

// BipartiteGraph is the author–paper incidence substrate
// (bipartite.Graph); attach one with WithBipartite to score replacement
// overlap by exact co-authored-paper counts.
type BipartiteGraph = bipartite.Graph

// BipartiteBuilder accumulates papers into a BipartiteGraph.
type BipartiteBuilder = bipartite.Builder

// NewBipartiteBuilder returns a builder pre-sized for n authors.
func NewBipartiteBuilder(nAuthors int) *BipartiteBuilder {
	return bipartite.NewBuilder(nAuthors)
}

// Replacement is one ranked replacement candidate with its score
// breakdown (core.Replacement).
type Replacement = core.Replacement

// ReplaceResult is the outcome of one subteam-replacement query
// (core.ReplaceResult).
type ReplaceResult = core.ReplaceResult

// ReplaceWeights blends the RWR-proximity and structural-overlap score
// components (core.ReplaceWeights).
type ReplaceWeights = core.ReplaceWeights

// DefaultReplaceWeights is the default component blend (0.7 walk / 0.3
// overlap).
func DefaultReplaceWeights() ReplaceWeights { return core.DefaultReplaceWeights() }

// ReplaceOption adjusts one ReplaceSubteam call. Options are applied in
// order; the last write wins.
type ReplaceOption func(*replaceOptions)

// replaceOptions accumulates per-call state. The zero value means "one
// departing member must still be named via WithDeparting; everything else
// defaults".
type replaceOptions struct {
	spec      core.ReplaceSpec
	timeout   time.Duration
	noDegrade bool
	coalesce  *bool
}

// WithDeparting names the team members leaving (required). They must be a
// non-empty strict subset of the team.
func WithDeparting(members ...int) ReplaceOption {
	return func(ro *replaceOptions) { ro.spec.Departing = append([]int(nil), members...) }
}

// WithCandidatePool supplies the candidate pool explicitly instead of
// deriving it from the graph; team members are filtered out.
func WithCandidatePool(candidates ...int) ReplaceOption {
	return func(ro *replaceOptions) { ro.spec.Candidates = append([]int(nil), candidates...) }
}

// WithDensestPool seeds the candidate pool from the densest subgraph
// (greedy peeling) of the remaining team's two-hop neighborhood, instead
// of the plain two-hop default — candidates embedded in the team's densest
// collaboration cluster. Ignored when WithCandidatePool is given.
func WithDensestPool() ReplaceOption {
	return func(ro *replaceOptions) { ro.spec.Pool = core.PoolDensest }
}

// WithScoreWeights overrides the component blend. Both weights must be
// non-negative with a positive sum; the call fails with ErrBadConfig
// otherwise.
func WithScoreWeights(rwrWeight, overlapWeight float64) ReplaceOption {
	return func(ro *replaceOptions) {
		ro.spec.Weights = ReplaceWeights{RWR: rwrWeight, Overlap: overlapWeight}
	}
}

// WithMaxCandidates caps the scored candidate pool (default 256; negative
// = unlimited). Pool order is deterministic — two-hop pools keep the
// closest candidates — so the cap is too.
func WithMaxCandidates(n int) ReplaceOption {
	return func(ro *replaceOptions) { ro.spec.MaxCandidates = n }
}

// WithReplaceTopN bounds the returned ranking (default 10; negative = the
// whole scored pool).
func WithReplaceTopN(n int) ReplaceOption {
	return func(ro *replaceOptions) { ro.spec.TopN = n }
}

// WithExactScores answers the candidate panel from the dense pre-solved
// inverse (I − cW̃)⁻¹ instead of the iterative kernel — the paper's
// precompute strategy, viable only below the pre-solve node limit (the
// call fails with ErrBadConfig beyond it). Exact scores are the converged
// fixed point rather than the m-sweep iterate, so rankings may differ in
// the last ulps from the default path; use for small-graph ground truth.
func WithExactScores() ReplaceOption {
	return func(ro *replaceOptions) { ro.spec.Exact = true }
}

// WithReplaceTimeout arms a deadline on the call (≤ 0 = none beyond the
// caller's context).
func WithReplaceTimeout(d time.Duration) ReplaceOption {
	return func(ro *replaceOptions) { ro.timeout = d }
}

// WithReplaceNoDegrade makes the call fail with ErrUnavailable instead of
// accepting a reduced-fidelity panel when the circuit breaker is open.
func WithReplaceNoDegrade() ReplaceOption {
	return func(ro *replaceOptions) { ro.noDegrade = true }
}

// WithReplaceCoalesceHint opts the request's walks in (true) or out
// (false) of the cross-request solve coalescer; answers are bit-identical
// either way.
func WithReplaceCoalesceHint(on bool) ReplaceOption {
	return func(ro *replaceOptions) { ro.coalesce = &on }
}

// ReplaceSubteam ranks replacement candidates for the departing members of
// team — the title paper's Subteam Replacement workload. Each candidate
// of the pool (two-hop neighborhood by default; see WithDensestPool and
// WithCandidatePool) is scored by its walk proximity to the remaining
// members, blended with its structural overlap against the departed ones
// (co-authored-paper counts when WithBipartite attached a substrate, the
// projected-graph shared-collaborator kernel otherwise). Walks resolve
// through the engine's cache, solve pool and coalescer: the remaining
// members' walks bound every candidate's proximity, and only the
// candidates that can reach the top N (about N of them) get their own
// walk. Answers are deterministic, bit-identical with serving features on
// or off, and a top-N answer is the first N of the whole pool's ranking,
// bit for bit. The resilience layer (when enabled) gates the call like any other
// query: admission control, breaker routing, and degraded (relaxed
// tolerance) panels marked on ReplaceResult.Degraded.
func (e *Engine) ReplaceSubteam(ctx context.Context, team []int, opts ...ReplaceOption) (res *ReplaceResult, err error) {
	defer e.recoverToError(&err)
	ro := replaceOptions{}
	for _, opt := range opts {
		if opt != nil {
			opt(&ro)
		}
	}
	ro.spec.Team = append([]int(nil), team...)
	if ro.spec.Bipartite == nil {
		ro.spec.Bipartite = e.bp
	}
	cfg, _ := e.snapshot() // fast mode does not apply: replace walks are full-graph
	if ro.coalesce != nil {
		cfg.NoCoalesce = !*ro.coalesce
	}
	if ro.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, ro.timeout)
		defer cancel()
	}
	return e.replaceWith(ctx, cfg, ro.spec, ro.noDegrade)
}

// replaceWith is the metered funnel for subteam-replacement queries,
// mirroring queryWith: admission and breaker routing first, then the core
// scoring pass, then metrics and span attribution. Instrumentation only
// reads the finished result; answers stay bit-identical to an unmetered
// run.
func (e *Engine) replaceWith(ctx context.Context, cfg Config, spec core.ReplaceSpec, noDegrade bool) (*ReplaceResult, error) {
	start := time.Now()
	qctx, span := e.replaceSpan(ctx)
	span.SetAttr(obs.Int("team", len(spec.Team)), obs.Int("departing", len(spec.Departing)),
		obs.Str("pool_strategy", replacePoolLabel(spec)))
	var (
		release  func()
		probe    bool
		degraded *core.Degradation
	)
	if e.res != nil {
		var err error
		release, err = e.res.Admit(qctx)
		if err != nil {
			span.SetAttr(obs.Str("shed", fault.ShedReason(err)))
			span.SetError(err)
			span.End()
			e.metrics.observeReplace(nil, replacePoolLabel(spec), err, time.Since(start))
			e.recordSlowReplace(spec.Team, nil, err, time.Since(start), span.TraceID())
			e.flight.ObserveQuery(flightReplaceOutcome(nil, err, time.Since(start)))
			return nil, err
		}
		switch e.res.Route() {
		case resilience.RouteProbe:
			probe = true
		case resilience.RouteDegrade:
			if noDegrade || e.res.Options().NoDegrade {
				release()
				err := fmt.Errorf("%w: circuit breaker open", ErrUnavailable)
				e.metrics.errCounter(err).Inc()
				span.SetAttr(obs.Str("shed", "breaker_open"))
				span.SetError(err)
				span.End()
				e.recordSlowReplace(spec.Team, nil, err, time.Since(start), span.TraceID())
				e.flight.ObserveQuery(flightReplaceOutcome(nil, err, time.Since(start)))
				return nil, err
			}
			cfg, degraded = degradeConfig(cfg, e.res.Options())
		}
	}
	e.metrics.inflight.Add(1)
	res, err := func() (*ReplaceResult, error) {
		defer e.metrics.inflight.Add(-1)
		if release != nil {
			defer release()
		}
		runner, err := e.runnerFor(cfg.RWR)
		if err != nil {
			return nil, err
		}
		return runner.ReplaceSubteamCtx(qctx, spec, cfg)
	}()
	if e.res != nil {
		e.res.Observe(breakerFailure(err), probe)
	}
	if degraded != nil && err == nil && res != nil {
		res.Degraded = degraded
	}
	elapsed := time.Since(start)
	strategy := replacePoolLabel(spec)
	if res != nil {
		res.TraceID = span.TraceID()
		strategy = res.PoolStrategy
		span.SetAttr(obs.Str("pool_strategy", res.PoolStrategy),
			obs.Int("pool_size", res.PoolSize),
			obs.Int("ranked", len(res.Replacements)),
			obs.Str("solve_kernel", res.Stages.SolveKernel),
			obs.Int("solve_sweeps", res.Stages.SolveSweeps),
			obs.Int("cache_hits", res.Stages.CacheHits),
			obs.Int("cache_misses", res.Stages.CacheMisses))
		if res.Degraded != nil {
			span.SetAttr(obs.Str("degraded", res.Degraded.Mode),
				obs.Str("degraded_reason", res.Degraded.Reason))
		}
	}
	span.SetError(err)
	span.End()
	e.metrics.observeReplace(res, strategy, err, elapsed)
	e.recordSlowReplace(spec.Team, res, err, elapsed, span.TraceID())
	e.flight.ObserveQuery(flightReplaceOutcome(res, err, elapsed))
	return res, err
}

// replacePoolLabel names the requested pool strategy before the core pass
// resolves it — so shed and failed requests still count under the right
// label.
func replacePoolLabel(spec core.ReplaceSpec) string {
	if len(spec.Candidates) > 0 {
		return core.PoolExplicit.String()
	}
	return spec.Pool.String()
}

// replaceSpan opens the per-request span: nested under the caller's
// envelope when ctx carries one, a new root trace otherwise.
func (e *Engine) replaceSpan(ctx context.Context) (context.Context, *obs.Span) {
	if obs.SpanFromContext(ctx) != nil {
		return obs.StartSpan(ctx, "replace")
	}
	return e.tracer.StartRoot(ctx, "replace")
}
