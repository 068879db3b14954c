package ceps

import (
	"context"

	"ceps/internal/bipartite"
	"ceps/internal/core"
	"ceps/internal/obs"
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
// order; the last write wins. One departing member must be named via
// WithDeparting; everything else defaults.
type ReplaceOption func(*core.ReplaceSpec)

// WithDeparting names the team members leaving (required). They must be a
// non-empty strict subset of the team.
func WithDeparting(members ...int) ReplaceOption {
	return func(spec *core.ReplaceSpec) { spec.Departing = append([]int(nil), members...) }
}

// WithCandidatePool supplies the candidate pool explicitly instead of
// deriving it from the graph; team members are filtered out.
func WithCandidatePool(candidates ...int) ReplaceOption {
	return func(spec *core.ReplaceSpec) { spec.Candidates = append([]int(nil), candidates...) }
}

// WithDensestPool seeds the candidate pool from the densest subgraph
// (greedy peeling) of the remaining team's two-hop neighborhood, instead
// of the plain two-hop default — candidates embedded in the team's densest
// collaboration cluster. Ignored when WithCandidatePool is given.
func WithDensestPool() ReplaceOption {
	return func(spec *core.ReplaceSpec) { spec.Pool = core.PoolDensest }
}

// WithScoreWeights overrides the component blend. Both weights must be
// non-negative with a positive sum; the call fails with ErrBadConfig
// otherwise.
func WithScoreWeights(rwrWeight, overlapWeight float64) ReplaceOption {
	return func(spec *core.ReplaceSpec) {
		spec.Weights = ReplaceWeights{RWR: rwrWeight, Overlap: overlapWeight}
	}
}

// WithMaxCandidates caps the scored candidate pool (default 256; negative
// = unlimited). Pool order is deterministic — two-hop pools keep the
// closest candidates — so the cap is too.
func WithMaxCandidates(n int) ReplaceOption {
	return func(spec *core.ReplaceSpec) { spec.MaxCandidates = n }
}

// WithReplaceTopN bounds the returned ranking (default 10; negative = the
// whole scored pool).
func WithReplaceTopN(n int) ReplaceOption {
	return func(spec *core.ReplaceSpec) { spec.TopN = n }
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
// bit for bit. The call runs through the engine's request funnel like every
// other query type: admission control, breaker routing, degraded (relaxed
// tolerance) panels marked on ReplaceResult.Degraded, and the same span,
// metrics, slow-log and SLO signals on every exit. ctx bounds the call.
func (e *Engine) ReplaceSubteam(ctx context.Context, team []int, opts ...ReplaceOption) (res *ReplaceResult, err error) {
	defer e.recoverToError(&err)
	var spec core.ReplaceSpec
	for _, opt := range opts {
		if opt != nil {
			opt(&spec)
		}
	}
	spec.Team = append([]int(nil), team...)
	spec.Bipartite = e.bp
	cfg, _ := e.snapshot() // Fast CePS state does not apply: replace walks are full-graph
	return serve(e, ctx, e.replaceCall(cfg, spec))
}

// replaceCall describes one subteam-replacement request to the request
// funnel. Its request counter is ceps_replace_total by pool strategy, its
// latency ceps_replace_duration_seconds, and its rows are counted against
// the full graph its walks run on.
func (e *Engine) replaceCall(cfg Config, spec core.ReplaceSpec) call[*ReplaceResult] {
	return call[*ReplaceResult]{
		span: "replace",
		attrs: []obs.Attr{obs.Int("team", len(spec.Team)), obs.Int("departing", len(spec.Departing)),
			obs.Str("pool_strategy", replacePoolLabel(spec))},
		queries: spec.Team,
		cfg:     cfg,
		keepTol: true,
		run: func(ctx context.Context, cfg Config) (*ReplaceResult, error) {
			runner, err := e.runnerFor(cfg.RWR)
			if err != nil {
				return nil, err
			}
			return runner.ReplaceSubteamCtx(ctx, spec, cfg)
		},
		settle: func(res *ReplaceResult, span *obs.Span, degraded *core.Degradation) outcome {
			o := outcome{latency: e.metrics.replaceDur, path: "replace"}
			if res == nil {
				o.count = e.metrics.replaceCounter(replacePoolLabel(spec))
				return o
			}
			res.TraceID = span.TraceID()
			if degraded != nil {
				res.Degraded = degraded
			}
			o.count = e.metrics.replaceCounter(res.PoolStrategy)
			o.stages, o.nodes, o.degraded = &res.Stages, e.g.N(), res.Degraded
			e.metrics.replaceCandidates.Observe(float64(res.PoolSize))
			span.SetAttr(obs.Str("pool_strategy", res.PoolStrategy),
				obs.Int("pool_size", res.PoolSize),
				obs.Int("ranked", len(res.Replacements)))
			return o
		},
	}
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
