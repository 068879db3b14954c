package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"ceps/internal/extract"
	"ceps/internal/fault"
	"ceps/internal/graph"
	"ceps/internal/obs"
	"ceps/internal/rwr"
	"ceps/internal/score"
)

// Result is the outcome of one CePS query.
type Result struct {
	// Subgraph is the extracted center-piece subgraph in *original* graph
	// ids (even for Fast CePS runs on an induced working graph).
	Subgraph *graph.Subgraph
	// Queries are the original query node ids.
	Queries []int

	// WorkGraph is the graph the pipeline actually ran on: the input graph
	// for plain CePS, the induced partition union for Fast CePS.
	WorkGraph *graph.Graph
	// ToOrig maps WorkGraph node ids to original ids; nil means identity.
	ToOrig []int
	// WorkQueries are the query ids in WorkGraph space.
	WorkQueries []int

	// R[i] = r(q_i, ·) over WorkGraph nodes.
	R [][]float64
	// Combined[j] = r(Q, j) over WorkGraph nodes.
	Combined []float64
	// Solver is the RWR solver used (needed for edge scores).
	Solver *rwr.Solver
	// Combiner is the query-type combiner used.
	Combiner score.Combiner
	// Extraction carries EXTRACT bookkeeping (destinations, goodness).
	Extraction *extract.Result

	// RWRDiagnostics reports, per query (same order as Queries), how the
	// random-walk solve went: sweeps run, final residual, and whether the
	// scores converged rather than being truncated at m sweeps.
	RWRDiagnostics []rwr.Diagnostics

	// Fallback is non-nil when Fast CePS degraded to a full-graph run; it
	// records why. Plain CePS results always have a nil Fallback.
	Fallback *Fallback

	// Degraded is non-nil when the answer was produced at reduced fidelity
	// — by the resilience layer's relaxed-tolerance path or the full-graph
	// fallback — and records the mode and reason.
	Degraded *Degradation

	// Stages attributes Elapsed to the pipeline stages of the paper's cost
	// model (Step 1 solve, Step 2 combine, Step 3 EXTRACT, plus the Fast
	// CePS union preparation). Engines aggregate these into per-stage
	// latency histograms; the slow-query log reports them per query.
	Stages StageTimings

	// Elapsed is the wall-clock response time of the query phase
	// (scores + combination + extraction); for Fast CePS it includes the
	// partition-picking and induction steps but not the one-time
	// pre-partitioning.
	Elapsed time.Duration

	// TraceID is the id of the span trace this query recorded under, ""
	// when tracing is off. Set by the Engine (tracing lives there, not in
	// the core pipeline); whether the trace was retained for /debug/traces
	// depends on the sampling rules.
	TraceID string
}

// StageTimings breaks one query's response time into pipeline stages.
// The stages map onto the paper's cost model: Partition is Fast CePS
// Step 1 preparation (picking the query partitions and inducing their
// union), Solve is Step 1 (the per-query random walks, including building
// the normalized transition matrix when it is not cached), Combine is
// Step 2 (folding the Q score vectors), and Extract is Step 3 (the
// EXTRACT dynamic program). The sum can be slightly below Elapsed —
// validation, result assembly, and id remapping are not attributed.
type StageTimings struct {
	// Partition is the Fast CePS union-preparation time (zero for
	// full-graph runs).
	Partition time.Duration
	// Solve is the Step 1 random-walk time.
	Solve time.Duration
	// Combine is the Step 2 score-combination time.
	Combine time.Duration
	// Extract is the Step 3 EXTRACT time.
	Extract time.Duration
	// CacheHits and CacheMisses count this query's sources served from the
	// shared score cache (or a joined in-flight solve) versus resolved
	// fresh. Without a cache every source is a miss.
	CacheHits, CacheMisses int
	// ArtifactHits counts the cache misses (it is a subset of CacheMisses)
	// the persisted precompute tier answered with a row read instead of an
	// iterative solve. Zero when no artifact tier is attached.
	ArtifactHits int
	// SolveKernel names how Step 1 ran: "blocked" (one fused SpMM sweep
	// advancing every missing walk, or no solve at all when every source
	// was cached) or "artifact" (every resolved source came from the
	// precompute tier — no iterative solve ran). Either way every row is
	// the same m-sweep iterate. Empty when Step 1 was skipped entirely.
	SolveKernel string
	// SolveSweeps is the total number of power-iteration sweeps across
	// the query set (the Q·m of the paper's Step 1 cost model, or less
	// under early stopping) — with the work-graph size, the basis of the
	// engine's rows/s kernel throughput metric.
	SolveSweeps int
	// CoalescePanelWidth is the widest shared solve panel that served one
	// of this query's cache misses (0 without coalescing; 1 means a panel
	// solved for this query alone), and CoalesceWait is the longest delay
	// a miss spent queued in a forming panel before its solve launched.
	CoalescePanelWidth int
	CoalesceWait       time.Duration
}

// AddSolve folds the Step 1 accounting of a separate solve pass (an
// inferred-k pass ahead of the query it feeds) into st.
func (st *StageTimings) AddSolve(o StageTimings) {
	st.Solve += o.Solve
	st.SolveSweeps += o.SolveSweeps
	st.CacheHits += o.CacheHits
	st.CacheMisses += o.CacheMisses
	st.ArtifactHits += o.ArtifactHits
}

// Fallback records one step down the graceful-degradation ladder: the
// query was answered, but not by the path the caller asked for.
type Fallback struct {
	// From and To name the abandoned and substituted execution paths
	// (currently always "fast-ceps" → "full-ceps").
	From, To string
	// Reason says what made the preferred path unusable.
	Reason string
}

// String renders the fallback for logs.
func (f *Fallback) String() string {
	return fmt.Sprintf("%s → %s (%s)", f.From, f.To, f.Reason)
}

// Degradation records that the answer was produced at reduced fidelity and
// why. Distinct from Fallback (a different execution path at full
// fidelity): a degraded result may rank teams slightly differently than the
// full-fidelity pipeline would, and callers that cannot accept that must
// check this field.
type Degradation struct {
	// Mode names the fidelity reduction: "relaxed_tol" (circuit breaker
	// routed the query to an iteration-capped solve, with the tolerance
	// loosened too except for subteam replacement, which keeps it so its
	// top-N certificate still prunes the pool; Reason gives the tolerance
	// and iterations used) or "full_graph_fallback" (Fast CePS union was
	// unusable; answered on the full graph, exact but off the fast path).
	Mode string
	// Reason says what forced the degradation.
	Reason string
}

// String renders the degradation for logs.
func (d *Degradation) String() string {
	return fmt.Sprintf("%s (%s)", d.Mode, d.Reason)
}

// Converged reports whether every per-query random-walk solve converged
// (vacuously true when no diagnostics were recorded).
func (r *Result) Converged() bool {
	for _, d := range r.RWRDiagnostics {
		if !d.Converged {
			return false
		}
	}
	return true
}

// OrigID converts a WorkGraph node id to an original id.
func (r *Result) OrigID(u int) int {
	if r.ToOrig == nil {
		return u
	}
	return r.ToOrig[u]
}

// CePS answers a center-piece subgraph query on g (Table 1): Step 1
// computes individual RWR scores, Step 2 combines them under the configured
// query type, Step 3 extracts the connection subgraph.
func CePS(g *graph.Graph, queries []int, cfg Config) (*Result, error) {
	return CePSCtx(context.Background(), g, queries, cfg)
}

// CePSCtx is CePS with cooperative cancellation: ctx is checked at every
// power-iteration sweep and every EXTRACT step, so a deadline or cancel
// aborts the query within one sweep's work. The returned error satisfies
// errors.Is for both the fault sentinels (fault.ErrCanceled,
// fault.ErrDeadlineExceeded) and the standard context errors.
func CePSCtx(ctx context.Context, g *graph.Graph, queries []int, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkQueries(g, queries); err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := runPipeline(ctx, g, queries, cfg, Serving{}, 0)
	if err != nil {
		return nil, err
	}
	res.Queries = append([]int(nil), queries...)
	res.WorkQueries = append([]int(nil), queries...)
	res.Elapsed = time.Since(start)
	return res, nil
}

// runPipeline executes steps 1–3 on the given (work) graph with a solver
// built for it, resolving Step 1 through sv under the cache key space
// space. Solver construction (the O(M) matrix normalization) counts toward
// the Solve stage — it is Step 1 work the paper's response time includes.
func runPipeline(ctx context.Context, g *graph.Graph, queries []int, cfg Config, sv Serving, space uint64) (*Result, error) {
	buildStart := time.Now()
	solver, err := rwr.NewSolver(g, cfg.RWR)
	if err != nil {
		return nil, err
	}
	buildDur := time.Since(buildStart)
	res, err := runPipelineWith(ctx, solver, g, queries, cfg, sv, space)
	if err != nil {
		return nil, err
	}
	res.Stages.Solve += buildDur
	return res, nil
}

// runPipelineWith executes steps 1–3 with an already-built solver: Step 1
// through solveStep, then combination and EXTRACT. Every CePS query path —
// plain, Runner and Fast CePS — joins here, which is what makes them
// bit-identical by construction.
func runPipelineWith(ctx context.Context, solver *rwr.Solver, g *graph.Graph, queries []int, cfg Config, sv Serving, space uint64) (*Result, error) {
	var st StageTimings
	uphill := func(vec []float64) []uint64 { return extract.UphillMask(g, vec) }
	R, diags, up, err := solveStep(ctx, solver, queries, sv, space, &st, uphill)
	if err != nil {
		return nil, err
	}
	_, combineSpan := obs.StartSpan(ctx, "combine")
	combineSpan.SetAttr(obs.Int("queries", len(queries)), obs.Int("nodes", g.N()))
	combineStart := time.Now()
	comb := cfg.Combiner(len(queries))
	combined, err := score.CombineNodes(R, comb)
	if err != nil {
		combineSpan.SetError(err)
		combineSpan.End()
		return nil, err
	}
	combineDur := time.Since(combineStart)
	combineSpan.End()
	extractCtx, extractSpan := obs.StartSpan(ctx, "extract")
	extractSpan.SetAttr(obs.Int("k", cfg.EffectiveK(len(queries))), obs.Int("budget", cfg.Budget))
	extractStart := time.Now()
	ext, err := extract.ExtractCtx(extractCtx, extract.Input{
		G:          g,
		Queries:    queries,
		R:          R,
		Combined:   combined,
		K:          cfg.EffectiveK(len(queries)),
		Budget:     cfg.Budget,
		MaxPathLen: cfg.MaxPathLen,
		Uphill:     up,
	})
	if err != nil {
		extractSpan.SetError(err)
		extractSpan.End()
		return nil, err
	}
	extractSpan.SetAttr(obs.Int("destinations", len(ext.Destinations)),
		obs.Int("paths", ext.PathsFound), obs.Int("subgraph_nodes", len(ext.Subgraph.Nodes)))
	extractSpan.End()
	st.Combine, st.Extract = combineDur, time.Since(extractStart)
	// Step 1's rows may be the serving cache's shared vectors, read in
	// place above; Result.R is where they leave the package, so the caller
	// gets its own copies.
	for i, row := range R {
		R[i] = slices.Clone(row)
	}
	return &Result{
		Subgraph:       ext.Subgraph,
		WorkGraph:      g,
		R:              R,
		Combined:       combined,
		Solver:         solver,
		Combiner:       comb,
		Extraction:     ext,
		RWRDiagnostics: diags,
		Stages:         st,
	}, nil
}

// sumSweeps totals the per-query power-iteration sweep counts — the
// SolveSweeps of StageTimings and the sweeps attribute of solve spans.
func sumSweeps(diags []rwr.Diagnostics) int {
	total := 0
	for _, d := range diags {
		total += d.Sweeps
	}
	return total
}

func checkQueries(g *graph.Graph, queries []int) error {
	if g == nil {
		return fmt.Errorf("%w: nil graph", fault.ErrBadQuery)
	}
	if len(queries) == 0 {
		return fmt.Errorf("%w: empty query set", fault.ErrBadQuery)
	}
	seen := make(map[int]bool, len(queries))
	for _, q := range queries {
		if q < 0 || q >= g.N() {
			return fmt.Errorf("%w: query node %d out of range [0,%d)", fault.ErrBadQuery, q, g.N())
		}
		if seen[q] {
			return fmt.Errorf("%w: duplicate query node %d", fault.ErrBadQuery, q)
		}
		seen[q] = true
	}
	return nil
}
