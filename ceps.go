// Package ceps is a from-scratch Go implementation of Center-Piece
// Subgraphs (CePS) — Tong & Faloutsos, "Center-Piece Subgraphs: Problem
// Definition and Fast Solutions".
//
// Given Q query nodes in an edge-weighted undirected graph (say, authors in
// a co-authorship network), CePS finds a small connected subgraph whose
// nodes have strong direct or indirect connections to all — or, with
// K_softAND queries, to at least k — of the query nodes. The pipeline is:
//
//  1. Individual scores: random walk with restart from each query node
//     (with the paper's column, degree-penalized, or symmetric
//     normalization of the adjacency matrix).
//  2. Combination: AND / OR / K_softAND meeting probabilities (or the
//     order-statistic variants) fold the Q score vectors into one.
//  3. EXTRACT: a dynamic program grows the budgeted output subgraph out of
//     source→destination key paths.
//
// The package also provides Fast CePS — pre-partition the graph once
// (a built-in multilevel k-way partitioner stands in for METIS), then
// answer queries on the union of the partitions containing the query nodes
// for a large speedup at a small quality cost — plus the paper's evaluation
// metrics (NRatio, ERatio, RelRatio), the delivered-current baseline it is
// compared against, and a synthetic DBLP-style co-authorship generator.
//
// # Quick start
//
//	ds, _ := ceps.GenerateDBLP(ceps.DefaultDBLPConfig())
//	eng, _ := ceps.NewEngine(ds.Graph)
//	res, _ := eng.Do(context.Background(), []int{ds.Repository[0][0], ds.Repository[1][0]})
//	for _, u := range res.Subgraph.Nodes {
//	    fmt.Println(ds.Graph.Label(u))
//	}
//
// For serving workloads — many concurrent, overlapping queries — construct
// the Engine with a score cache and a bounded solve pool and call Do from
// concurrent goroutines (see engine.go and README.md "Serving"); each
// call's deadline is its ctx's:
//
//	eng, _ := ceps.NewEngine(ds.Graph, ceps.WithCache(64<<20), ceps.WithWorkers(8))
//	var wg sync.WaitGroup
//	for i, qs := range querySets {
//	    wg.Add(1)
//	    go func() {
//	        defer wg.Done()
//	        ctx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
//	        defer cancel()
//	        results[i], errs[i] = eng.Do(ctx, qs)
//	    }()
//	}
//	wg.Wait()
//
// See the examples/ directory for runnable programs and DESIGN.md for the
// full architecture.
package ceps

import (
	"context"
	"net/http"
	"time"

	"ceps/internal/artifact"
	"ceps/internal/core"
	"ceps/internal/current"
	"ceps/internal/dblp"
	"ceps/internal/fault"
	"ceps/internal/graph"
	"ceps/internal/obs"
	"ceps/internal/partition"
	"ceps/internal/resilience"
	"ceps/internal/rwr"
	"ceps/internal/steiner"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Graph is an immutable edge-weighted undirected graph.
	Graph = graph.Graph
	// Builder accumulates nodes and edges into a Graph.
	Builder = graph.Builder
	// Edge is an undirected weighted edge.
	Edge = graph.Edge
	// Subgraph is an extracted center-piece subgraph.
	Subgraph = graph.Subgraph
	// DOTOptions controls Graphviz rendering of subgraphs.
	DOTOptions = graph.DOTOptions
	// Config holds all CePS pipeline parameters.
	Config = core.Config
	// Result is the outcome of a CePS query.
	Result = core.Result
	// Partitioned is the pre-partitioned Fast CePS state.
	Partitioned = core.Partitioned
	// PartitionOptions tunes the built-in graph partitioner.
	PartitionOptions = partition.Options
	// RWRConfig configures the random walk with restart.
	RWRConfig = rwr.Config
	// NormKind selects the adjacency normalization.
	NormKind = rwr.NormKind
	// DBLPConfig parameterizes the synthetic co-authorship generator.
	DBLPConfig = dblp.Config
	// DBLPCommunity describes one synthetic research community.
	DBLPCommunity = dblp.Community
	// Dataset is a generated co-authorship dataset.
	Dataset = dblp.Dataset
	// CurrentConfig configures the delivered-current baseline.
	CurrentConfig = current.Config
	// CurrentResult is the delivered-current baseline's output.
	CurrentResult = current.Result
	// SteinerResult is the approximate Steiner tree baseline's output.
	SteinerResult = steiner.Result
	// RankedNode is a node with its combined closeness score.
	RankedNode = core.RankedNode
	// Diagnostics reports how one random-walk solve went (sweeps, final
	// residual, convergence verdict).
	Diagnostics = rwr.Diagnostics
	// Fallback records a graceful degradation (e.g. Fast CePS answering on
	// the full graph because the partition union was degenerate).
	Fallback = core.Fallback
	// CacheStats is a snapshot of the Engine's score-cache counters
	// (hits, misses, evictions, byte budget).
	CacheStats = rwr.CacheStats
	// CoalesceOptions bounds the cross-request solve coalescer
	// (WithCoalescing): forming latency budget and panel width cap.
	CoalesceOptions = rwr.CoalesceOptions
	// CoalesceStats is a snapshot of the coalescer's counters (panels
	// solved, rows, widest panel, aborts).
	CoalesceStats = rwr.CoalesceStats
	// StageTimings is the per-stage breakdown (partition, solve, combine,
	// extract) and cache accounting carried on every Result.
	StageTimings = core.StageTimings
	// MetricsRegistry is an Engine's live metrics registry; serve it with
	// obs.Handler/obs.AdminMux or encode it with WriteText.
	MetricsRegistry = obs.Registry
	// SlowQueryEntry is one JSON line of the slow-query log.
	SlowQueryEntry = obs.SlowQueryEntry
	// TracingOptions configures request-scoped tracing (WithTracing):
	// head-sampling rate, the always-keep slow threshold, and the ring size.
	TracingOptions = obs.TracerOptions
	// Tracer starts request-scoped traces; get an Engine's with Tracer().
	Tracer = obs.Tracer
	// Span is one timed operation of a trace. A nil *Span no-ops on its
	// whole method set, so handler code threads spans unconditionally.
	Span = obs.Span
	// Trace is one finished, immutable trace as served by /debug/traces.
	Trace = obs.Trace
	// TraceStore is the fixed-capacity concurrent ring of retained traces.
	TraceStore = obs.TraceStore
	// AdminOption customizes AdminMux (e.g. WithTraceStore).
	AdminOption = obs.AdminOption
	// Degradation records that a Result was produced at reduced fidelity
	// (relaxed-tolerance solve or full-graph fallback) and why.
	Degradation = core.Degradation
	// ResilienceOptions tunes the serving-protection layer (WithResilience):
	// admission queue bounds, CoDel target, circuit-breaker thresholds, and
	// the degraded-answer solver parameters.
	ResilienceOptions = resilience.Options
	// ResilienceStats is a snapshot of the resilience controller's counters
	// (admitted/shed, queue depth, breaker state and transitions).
	ResilienceStats = resilience.Stats
	// BreakerState is the circuit-breaker state (closed/half-open/open).
	BreakerState = resilience.State
	// ArtifactStats is a snapshot of the precompute tier's counters
	// (artifacts loaded, key spaces bound, bytes mapped, hits/misses,
	// bind fallbacks, rebind generation); see Engine.ArtifactStats.
	ArtifactStats = artifact.TierStats
	// Objective is one declarative service-level objective the flight
	// recorder tracks (WithFlightRecorder / FlightRecorderOptions).
	Objective = obs.Objective
	// ObjectiveKind selects which query-outcome signal feeds an Objective
	// (latency, error rate, shed rate, cache/artifact hit rate).
	ObjectiveKind = obs.ObjectiveKind
	// FlightRecorder is the armed flight recorder handle; get an Engine's
	// with Engine.FlightRecorder(). Nil is a valid no-op receiver.
	FlightRecorder = obs.FlightRecorder
	// FlightStatus is the /debug/slo JSON document: live objective status,
	// recent triggers, retained bundles, and dashboard history.
	FlightStatus = obs.FlightStatus
	// ObjectiveStatus is one objective's live evaluation in FlightStatus.
	ObjectiveStatus = obs.ObjectiveStatus
	// BundleInfo describes one retained diagnostic bundle.
	BundleInfo = obs.BundleInfo
	// TriggerRecord is one fired (or debounce-suppressed) anomaly trigger.
	TriggerRecord = obs.TriggerRecord
)

// ObjectiveKind values for custom FlightRecorderOptions.Objectives.
const (
	// ObjectiveLatency: a request is good when it succeeds within the
	// objective's LatencyBound (sheds excluded, errors bad).
	ObjectiveLatency = obs.ObjectiveLatency
	// ObjectiveErrorRate: a non-shed request is good when it succeeds.
	ObjectiveErrorRate = obs.ObjectiveErrorRate
	// ObjectiveShedRate: every request counts, good unless load-shed.
	ObjectiveShedRate = obs.ObjectiveShedRate
	// ObjectiveCacheHitRate: per-source cache lookups (hits good).
	ObjectiveCacheHitRate = obs.ObjectiveCacheHitRate
	// ObjectiveArtifactHitRate: cache misses consulting the precompute
	// tier (artifact rows good, iterative fallbacks bad).
	ObjectiveArtifactHitRate = obs.ObjectiveArtifactHitRate
)

// Error taxonomy. Every failure on the query path wraps one of these
// sentinels, so callers branch with errors.Is instead of matching message
// strings. Context failures additionally satisfy errors.Is against
// context.Canceled / context.DeadlineExceeded. See README.md "Failure
// semantics".
var (
	// ErrCanceled: the query's context was canceled mid-flight.
	ErrCanceled = fault.ErrCanceled
	// ErrDeadlineExceeded: the query's context deadline passed mid-flight.
	ErrDeadlineExceeded = fault.ErrDeadlineExceeded
	// ErrDiverged: an iterative solve produced NaN/Inf values or a growing
	// residual; the scores would have been garbage.
	ErrDiverged = fault.ErrDiverged
	// ErrBadQuery: the query set was empty, duplicated, or out of range.
	ErrBadQuery = fault.ErrBadQuery
	// ErrBadConfig: the pipeline configuration failed validation.
	ErrBadConfig = fault.ErrBadConfig
	// ErrDegeneratePartition: the Fast CePS partition union cannot answer
	// the query (only surfaced when fallback is disabled).
	ErrDegeneratePartition = fault.ErrDegeneratePartition
	// ErrInternal: a panic crossed the Engine boundary and was converted
	// to an error.
	ErrInternal = fault.ErrInternal
	// ErrOverloaded: the admission controller or solve pool shed the
	// request to protect the service. HTTP layers map it to 429; the error
	// chain carries the shed reason (ShedReason) and a backoff hint
	// (RetryAfterHint).
	ErrOverloaded = fault.ErrOverloaded
	// ErrUnavailable: the circuit breaker is open and degraded answering
	// is disabled (ResilienceOptions.NoDegrade). HTTP layers map it to 503.
	ErrUnavailable = fault.ErrUnavailable
)

// ShedReason extracts the shed reason ("queue_full", "deadline_budget",
// "codel", "queue_wait", "pool_wait", "coalesce_wait") from an
// ErrOverloaded chain, or "" for other errors.
func ShedReason(err error) string { return fault.ShedReason(err) }

// RetryAfterHint extracts the backoff hint carried by an ErrOverloaded
// chain; ok is false when the error carries none.
func RetryAfterHint(err error) (d time.Duration, ok bool) { return fault.RetryAfterHint(err) }

// Breaker states (ResilienceStats.BreakerStateCode / Engine.BreakerState).
const (
	// BreakerClosed: healthy, all queries on the normal path.
	BreakerClosed = resilience.StateClosed
	// BreakerHalfOpen: probing the normal path with a bounded number of
	// queries while the rest stay degraded.
	BreakerHalfOpen = resilience.StateHalfOpen
	// BreakerOpen: all queries degraded (or refused under NoDegrade).
	BreakerOpen = resilience.StateOpen
)

// Normalization kinds (§4.3 and Appendix A of the paper).
const (
	// NormColumn is plain column normalization (Eq. 5).
	NormColumn = rwr.NormColumn
	// NormDegreePenalized penalizes high-degree nodes (Eq. 10 + Eq. 5).
	NormDegreePenalized = rwr.NormDegreePenalized
	// NormSymmetric is the symmetric manifold-ranking variant (Eq. 20).
	NormSymmetric = rwr.NormSymmetric
)

// NewBuilder returns a graph builder pre-sized for n nodes.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph from an edge list over n nodes.
func FromEdges(n int, edges []Edge) (*Graph, error) { return graph.FromEdges(n, edges) }

// ReadGraphFile loads a graph from the text format written by
// (*Graph).WriteFile.
func ReadGraphFile(path string) (*Graph, error) { return graph.ReadFile(path) }

// DefaultConfig returns the paper's §7 parameter setting: c = 0.5, m = 50,
// degree-penalized normalization with α = 0.5, AND query, budget 20.
func DefaultConfig() Config { return core.DefaultConfig() }

// Query answers a center-piece subgraph query on g (the CePS pipeline of
// Table 1 in the paper). ctx is checked at every power-iteration sweep and
// EXTRACT step, so a deadline or cancellation aborts the query within one
// sweep's work. The returned error satisfies errors.Is for both the ceps
// sentinels (ErrCanceled, ErrDeadlineExceeded) and the standard context
// errors.
func Query(ctx context.Context, g *Graph, queries []int, cfg Config) (*Result, error) {
	return core.CePSCtx(ctx, g, queries, cfg)
}

// PrePartition builds the one-time Fast CePS state: g split into p parts.
// ctx is checked between the recursive bisections of the multilevel
// partitioner. Install the state on an Engine with SetPartitioned, or
// query it directly with its CePSCtx method.
func PrePartition(ctx context.Context, g *Graph, p int, opts PartitionOptions) (*Partitioned, error) {
	return core.PrePartitionCtx(ctx, g, p, opts)
}

// MetricsHandler serves a metrics registry in Prometheus text exposition
// format (version 0.0.4). Mount it wherever your service's HTTP surface
// lives: mux.Handle("/metrics", ceps.MetricsHandler(eng.Metrics())).
func MetricsHandler(r *MetricsRegistry) http.Handler { return obs.Handler(r) }

// AdminMux builds the full operational surface for a registry on a fresh
// mux: /metrics, /healthz, /debug/vars (expvar), net/http/pprof, and —
// with WithTraceStore — /debug/traces (JSON) and /debug/traces/view (HTML
// waterfall). Serve it on its own address — the profiler does not belong
// on a public query port. The ceps CLI's -admin flag does exactly this.
func AdminMux(r *MetricsRegistry, opts ...AdminOption) *http.ServeMux {
	return obs.AdminMux(r, opts...)
}

// WithTraceStore mounts the trace endpoints on an AdminMux, backed by an
// Engine's TraceStore(). A nil store leaves them unmounted.
func WithTraceStore(ts *TraceStore) AdminOption { return obs.WithTraceStore(ts) }

// WithDebugVar adds a named live variable to AdminMux's /debug/vars
// alongside the standard expvar set; fn is called at scrape time and its
// result JSON-encoded. The ceps CLI uses it to expose breaker and
// admission-queue state (Engine.ResilienceStats).
func WithDebugVar(name string, fn func() any) AdminOption { return obs.WithDebugVar(name, fn) }

// WithFlightAdmin mounts the flight-recorder endpoints (/debug/slo,
// /debug/flight, /debug/dashboard) on an AdminMux, backed by an Engine's
// FlightRecorder(). A nil recorder leaves them unmounted. (Named apart
// from the WithFlightRecorder engine Option that arms the recorder.)
func WithFlightAdmin(fr *FlightRecorder) AdminOption { return obs.WithFlightRecorder(fr) }

// WithBuildInfo appends the build version to AdminMux's /healthz body
// (which stays "ok"-prefixed for liveness probes). Pass ceps.Version for
// parity with the ceps_build_info metric and ceps -version.
func WithBuildInfo(version string) AdminOption { return obs.WithBuildInfo(version) }

// RelRatio compares a Fast CePS result against a full-graph run (Eq. 19).
func RelRatio(full, fast *Result) (float64, error) { return core.RelRatio(full, fast) }

// GenerateDBLP builds a synthetic DBLP-style co-authorship dataset.
func GenerateDBLP(cfg DBLPConfig) (*Dataset, error) { return dblp.Generate(cfg) }

// DefaultDBLPConfig mirrors the paper's evaluation setup at a
// laptop-friendly scale.
func DefaultDBLPConfig() DBLPConfig { return dblp.DefaultConfig() }

// ScaleDBLP multiplies a DBLP config's community sizes by f.
func ScaleDBLP(cfg DBLPConfig, f float64) DBLPConfig { return dblp.Scale(cfg, f) }

// TopCenterPieces ranks the strongest center-piece candidates — the
// highest combined closeness scores r(Q, j) outside the query set —
// without extracting a display subgraph (Steps 1–2 of the pipeline only).
func TopCenterPieces(ctx context.Context, g *Graph, queries []int, cfg Config, topN int) ([]RankedNode, error) {
	return core.TopCenterPiecesCtx(ctx, g, queries, cfg, topN)
}

// InferK chooses a K_softAND coefficient from the mutual-support structure
// of the query set (the paper's Future Work 3: inferring the "optimal" k
// when the user does not supply one). tau ≤ 0 uses the default support
// threshold. It returns the inferred k and each query's supporter count.
func InferK(ctx context.Context, g *Graph, queries []int, cfg Config, tau float64) (int, []int, error) {
	return core.InferKCtx(ctx, g, queries, cfg, tau)
}

// QueryAutoK infers the K_softAND coefficient with InferK and answers the
// query with it; the chosen k is recoverable from the result's Combiner.
func QueryAutoK(ctx context.Context, g *Graph, queries []int, cfg Config) (*Result, error) {
	return core.CePSAutoK(ctx, g, queries, cfg)
}

// SteinerTree computes the metric-closure 2-approximate Steiner tree over
// the terminals — the alternative connection formalism §2 of the paper
// compares CePS against. lengthFn converts edge weight to length; nil uses
// 1/weight (strong ties are short).
func SteinerTree(g *Graph, terminals []int, lengthFn func(float64) float64) (*SteinerResult, error) {
	return steiner.Tree(g, terminals, lengthFn)
}

// ConnectionSubgraph runs the delivered-current baseline (Faloutsos,
// McCurley & Tomkins, KDD 2004) between a source and sink query node. It
// is the method CePS generalizes and is provided for comparison; note its
// output depends on the argument order, which Fig. 2 of the paper (and the
// fig2 experiment here) demonstrates.
func ConnectionSubgraph(g *Graph, source, sink int, cfg CurrentConfig) (*CurrentResult, error) {
	return current.ConnectionSubgraph(g, source, sink, cfg)
}
