package ceps

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"runtime"
	"sync"
	"time"

	"ceps/internal/artifact"
	"ceps/internal/core"
	"ceps/internal/obs"
	"ceps/internal/resilience"
	"ceps/internal/rwr"
)

// Engine is the concurrency-safe front door for repeated querying over one
// graph. It reuses the normalized random-walk transition matrix across
// queries, optionally holds Fast CePS pre-partition state, and — when
// constructed with WithCache — shares a SIEVE-evicted cache of per-source
// RWR score vectors across every query path, so overlapping query sets pay each
// member's solve once.
//
// All methods are safe for concurrent use: each query works against an
// immutable snapshot of the configuration and partition state taken under
// a read lock, so Reconfigure and SetPartitioned can run concurrently with
// queries without tearing anything. The serving state (cache and solve
// pool) is fixed at construction and internally synchronized.
type Engine struct {
	g *Graph

	mu       sync.RWMutex
	cfg      Config
	pt       *Partitioned
	runner   *core.Runner // lazily built for cfg.RWR, serving-attached
	dgRunner *core.Runner // lazily built for the degraded (relaxed-Tol) RWR config
	// capRunner is lazily built for the degraded config that keeps Tol and
	// caps iterations only (ReplaceSubteam's degrade route).
	capRunner *core.Runner

	cache *rwr.ScoreCache // nil when caching is off
	pool  *rwr.Pool       // never nil
	coal  *rwr.Coalescer  // nil when coalescing is off

	arts     *artifact.Tier  // nil when no artifact directory is attached
	artStore *artifact.Store // backing store of arts, closed with the tier
	graphFP  uint64          // content fingerprint of g, computed when arts != nil

	res *resilience.Controller // nil when resilience is off (the default)

	bp *BipartiteGraph // nil unless WithBipartite attached a substrate

	metrics *engineMetrics      // never nil
	slow    *obs.SlowLog        // nil when no slow-query log is attached
	tracer  *obs.Tracer         // nil when tracing is off (nil is a valid no-op)
	flight  *obs.FlightRecorder // nil when disarmed (nil is a valid no-op)
}

// Option configures an Engine at construction. Options are applied in
// order; the last write wins.
type Option func(*engineConfig) error

// engineConfig accumulates option state before the Engine is assembled.
type engineConfig struct {
	cfg        Config
	cacheBytes int64
	coalesce   *CoalesceOptions
	workers    int
	slowW      io.Writer
	slowThresh time.Duration
	tracing    *TracingOptions
	resilience *ResilienceOptions
	bp         *BipartiteGraph
	artifacts  string
	flight     *FlightRecorderOptions
}

// WithBipartite attaches the author–paper incidence substrate the engine's
// graph was projected from. ReplaceSubteam then scores structural overlap
// by co-authored-paper counts (the substrate's exact kernel) instead of
// approximating it on the projected co-authorship graph. Other query types
// ignore it. The substrate's author ids must coincide with the graph's
// node ids (as dblp.Dataset guarantees between Papers and Graph).
func WithBipartite(bp *BipartiteGraph) Option {
	return func(ec *engineConfig) error {
		if bp == nil {
			return fmt.Errorf("%w: nil bipartite substrate", ErrBadConfig)
		}
		ec.bp = bp
		return nil
	}
}

// WithConfig sets the pipeline configuration (default: DefaultConfig).
// The config is validated by NewEngine.
func WithConfig(cfg Config) Option {
	return func(ec *engineConfig) error {
		ec.cfg = cfg
		return nil
	}
}

// WithCache enables the shared score cache with the given byte budget:
// per-source RWR score vectors (8·N bytes each, plus small overhead) are
// kept under SIEVE eviction and reused by every query path, including Fast
// CePS. Size it as budgetBytes ≈ 8·N·(expected distinct sources); see
// README.md "Serving" for guidance.
func WithCache(budgetBytes int64) Option {
	return func(ec *engineConfig) error {
		if budgetBytes <= 0 {
			return fmt.Errorf("%w: cache budget %d bytes must be positive", ErrBadConfig, budgetBytes)
		}
		ec.cacheBytes = budgetBytes
		return nil
	}
}

// WithWorkers bounds how many random-walk solves run concurrently across
// all queries on this Engine (default: GOMAXPROCS). The bound is global:
// 100 concurrent Do calls still run at most n solves at once.
func WithWorkers(n int) Option {
	return func(ec *engineConfig) error {
		if n <= 0 {
			return fmt.Errorf("%w: worker count %d must be positive", ErrBadConfig, n)
		}
		ec.workers = n
		return nil
	}
}

// WithCoalescing enables the cross-request solve coalescer: cache misses
// from concurrent queries join a forming panel — bounded by a latency
// budget (CoalesceOptions.MaxWait, default 1ms) and a width cap (MaxWidth,
// default 16), released early whenever a pool slot is already free — and
// the panel solves as one blocked multi-source call under one pool slot.
// Coalesced answers are bit-identical to uncoalesced ones (the blocked
// kernel is column-wise identical to scalar); the option only changes how
// concurrent misses are scheduled, trading up to MaxWait of added latency
// for streaming the transition matrix once per panel instead of once per
// miss. Requires WithCache — the fan-out rides the cache's single-flight
// entries — and NewEngine rejects the combination without it.
func WithCoalescing(o CoalesceOptions) Option {
	return func(ec *engineConfig) error {
		if o.MaxWait < 0 {
			return fmt.Errorf("%w: negative coalesce wait budget %v", ErrBadConfig, o.MaxWait)
		}
		if o.MaxWidth < 0 {
			return fmt.Errorf("%w: negative coalesce panel width %d", ErrBadConfig, o.MaxWidth)
		}
		ec.coalesce = &o
		return nil
	}
}

// WithArtifactDir attaches a precompute-artifact directory written by the
// cepspre tool: per-partition solve artifacts are mmapped at construction
// and consulted on the serving miss path, between the score cache and the
// iterative solver, so a cold query over a precomputed partition union
// becomes one row read. Artifact rows are the solver's m-sweep iterates,
// bit for bit, so answers are identical to an engine without this option.
// Artifacts are content-keyed by graph, RWR config, and partition
// fingerprints; any mismatch with the live engine state (including after
// Reconfigure) cleanly bypasses the tier. A directory that exists but
// fails to open (corrupt or truncated artifacts, bad index, dense-class
// artifacts from an older cepspre) rejects construction with ErrBadConfig
// rather than silently serving nothing.
func WithArtifactDir(dir string) Option {
	return func(ec *engineConfig) error {
		if dir == "" {
			return fmt.Errorf("%w: empty artifact directory", ErrBadConfig)
		}
		ec.artifacts = dir
		return nil
	}
}

// WithSlowQueryLog attaches a slow-query log: every call of every query
// type — Do, QueryAutoK, ReplaceSubteam, TopCenterPieces and InferK,
// including failed and refused calls — whose wall time meets or exceeds
// threshold is written to w as one JSON line with the per-stage breakdown
// and cache counters — see README.md "Observability" for the field
// reference. Writes are serialized; w need not be safe for concurrent
// use. A threshold of 0 logs every call.
func WithSlowQueryLog(w io.Writer, threshold time.Duration) Option {
	return func(ec *engineConfig) error {
		if w == nil {
			return fmt.Errorf("%w: nil slow-query log writer", ErrBadConfig)
		}
		if threshold < 0 {
			return fmt.Errorf("%w: negative slow-query threshold %v", ErrBadConfig, threshold)
		}
		ec.slowW = w
		ec.slowThresh = threshold
		return nil
	}
}

// WithTracing enables request-scoped span tracing: every query records a
// span tree mirroring the pipeline stages (partition/solve/combine/extract,
// with per-sweep solver events), and finished traces are kept in a
// fixed-capacity ring when head-sampled (SampleRate), slower than
// SlowThreshold, or failed. Retained traces are served by AdminMux's
// /debug/traces endpoints via Engine.TraceStore. Tracing never changes
// answers, and an engine without WithTracing pays only nil-pointer checks.
func WithTracing(o TracingOptions) Option {
	return func(ec *engineConfig) error {
		if o.SampleRate < 0 || o.SampleRate > 1 {
			return fmt.Errorf("%w: trace sample rate %g outside [0, 1]", ErrBadConfig, o.SampleRate)
		}
		if o.Buffer < 0 {
			return fmt.Errorf("%w: trace buffer %d must not be negative", ErrBadConfig, o.Buffer)
		}
		if o.SlowThreshold < 0 {
			return fmt.Errorf("%w: negative trace slow threshold %v", ErrBadConfig, o.SlowThreshold)
		}
		ec.tracing = &o
		return nil
	}
}

// WithResilience enables the serving-protection layer: a bounded,
// deadline-aware admission queue with CoDel shedding in front of every
// query path (rejections carry ErrOverloaded with a Retry-After hint), and
// a circuit breaker that routes queries to relaxed-tolerance degraded
// answers (marked on Result.Degraded) when the normal path is failing or
// saturated. The zero Options value picks defaults sized from the engine's
// worker bound. Without this option the engine admits everything
// unconditionally and answers are bit-identical to earlier versions.
func WithResilience(o ResilienceOptions) Option {
	return func(ec *engineConfig) error {
		if err := o.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		ec.resilience = &o
		return nil
	}
}

// NewEngine creates an engine over g. With no options it answers
// full-graph queries under DefaultConfig with no score cache and a
// GOMAXPROCS solve bound.
//
// Migrating from the v1 constructor: NewEngine(g, cfg) becomes
// NewEngine(g, ceps.WithConfig(cfg)) — and now returns an error, because
// options (config validation, pre-partitioning) can fail at construction.
func NewEngine(g *Graph, opts ...Option) (*Engine, error) {
	if g == nil {
		return nil, fmt.Errorf("%w: nil graph", ErrBadQuery)
	}
	ec := engineConfig{cfg: DefaultConfig()}
	for _, opt := range opts {
		if err := opt(&ec); err != nil {
			return nil, err
		}
	}
	if err := ec.cfg.Validate(); err != nil {
		return nil, err
	}
	if ec.workers == 0 {
		ec.workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		g:    g,
		cfg:  ec.cfg,
		pool: rwr.NewPool(ec.workers),
		bp:   ec.bp,
	}
	if ec.cacheBytes > 0 {
		e.cache = rwr.NewScoreCache(ec.cacheBytes)
	}
	if ec.coalesce != nil {
		if e.cache == nil {
			return nil, fmt.Errorf("%w: WithCoalescing requires WithCache (the panel fan-out rides the cache's single-flight entries)", ErrBadConfig)
		}
		e.coal = rwr.NewCoalescer(*ec.coalesce)
	}
	if ec.tracing != nil {
		e.tracer = obs.NewTracer(*ec.tracing)
	}
	// The tracer must exist before the registry: the ceps_traces_* counter
	// funcs read it at scrape time (and read zero from a nil tracer).
	e.metrics = newEngineMetrics(e.CacheStats, ec.workers, e.tracer)
	if e.coal != nil {
		e.coal.OnSolve(func(width int) {
			e.metrics.coalescedSolves.Inc()
			e.metrics.coalescePanelWidth.Observe(float64(width))
		})
	}
	if ec.resilience != nil {
		// The admission controller's deadline budget is driven by the live
		// p90 of end-to-end latency, so the estimate tracks the workload
		// (and the degraded path's cheaper solves) without configuration.
		ctrl, err := resilience.New(*ec.resilience, ec.workers,
			func() time.Duration {
				return time.Duration(e.metrics.durTotal.Quantile(0.9) * float64(time.Second))
			},
			func(d time.Duration) { e.metrics.queueResidence.Observe(d.Seconds()) })
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		e.res = ctrl
	}
	// Resilience series are registered unconditionally (zero-valued when
	// the layer is off) so dashboards never lose the family.
	e.metrics.attachResilience(func() ResilienceStats {
		if e.res == nil {
			return ResilienceStats{BreakerState: resilience.StateClosed.String()}
		}
		return e.res.Stats()
	})
	// Artifact series likewise register unconditionally: they read the tier
	// at scrape time and report zero until (unless) one is attached below.
	e.metrics.attachArtifacts(e.ArtifactStats)
	if ec.slowW != nil {
		e.slow = obs.NewSlowLog(ec.slowW, ec.slowThresh)
	}
	if ec.artifacts != "" {
		store, err := artifact.Open(ec.artifacts)
		if err != nil {
			return nil, fmt.Errorf("%w: opening artifact directory %q: %v", ErrBadConfig, ec.artifacts, err)
		}
		e.artStore = store
		e.arts = artifact.NewTier(store, log.Printf)
		// The graph fingerprint is the content key artifacts were built
		// against; one O(M) pass here buys every later bind.
		e.graphFP = g.Fingerprint()
		e.rebindArtifacts()
	}
	// The flight recorder arms last: its stat sources and objective set
	// read the fully assembled engine (artifact tier, resilience layer).
	if ec.flight != nil {
		if err := e.armFlightRecorder(*ec.flight); err != nil {
			e.Close()
			return nil, err
		}
	}
	return e, nil
}

// Graph returns the engine's graph.
func (e *Engine) Graph() *Graph { return e.g }

// Config returns the engine's current configuration.
func (e *Engine) Config() Config {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.cfg
}

// serving bundles the engine's cache, pool, coalescer and artifact tier
// for the core query paths. All are fixed at construction, so no lock is
// needed. The tier is only placed in the interface field when it exists —
// a typed-nil ArtifactReader would defeat the core layer's nil checks.
func (e *Engine) serving() core.Serving {
	sv := core.Serving{Cache: e.cache, Pool: e.pool, Coalescer: e.coal}
	if e.arts != nil {
		sv.Artifacts = e.arts
	}
	return sv
}

// rebindArtifacts re-derives the artifact tier's key-space bindings from
// the engine's current config and partition state: drop everything (bump
// the binding generation), then bind afresh. It runs at construction and
// after every state change that moves the runtime key spaces — an RWR
// reconfigure or a partition swap — in generation-bump parity with the
// ScoreCache purge those paths already do, so a stale artifact can never
// serve a reconfigured engine.
func (e *Engine) rebindArtifacts() {
	if e.arts == nil {
		return
	}
	e.mu.RLock()
	cfg, pt := e.cfg, e.pt
	e.mu.RUnlock()
	e.arts.Rebind()
	core.BindArtifacts(e.arts, e.g, e.graphFP, cfg.RWR, pt)
}

// snapshot returns the configuration and partition state one query runs
// against. Reconfiguration concurrent with the query affects only later
// queries.
func (e *Engine) snapshot() (Config, *Partitioned) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.cfg, e.pt
}

// Reconfigure atomically replaces the engine's configuration for
// subsequent queries. Changing the RWR parameters invalidates the cached
// transition matrix and purges the score cache (stale vectors could never
// be read — their key space dies with the old config — but the memory is
// released eagerly). In-flight queries finish under the snapshot they
// started with.
func (e *Engine) Reconfigure(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	e.mu.Lock()
	rwrChanged := cfg.RWR != e.cfg.RWR
	e.cfg = cfg
	if rwrChanged {
		e.runner, e.dgRunner, e.capRunner = nil, nil, nil
	}
	e.mu.Unlock()
	if rwrChanged {
		if e.cache != nil {
			e.cache.Purge()
		}
		e.rebindArtifacts()
	}
	return nil
}

// Metrics returns the engine's metrics registry. Serve it over HTTP with
// obs.Handler / obs.AdminMux (the ceps CLI's -admin flag does exactly
// that), or scrape it in-process with WriteText. The registry is live:
// every scrape reads the current counters.
func (e *Engine) Metrics() *MetricsRegistry { return e.metrics.reg }

// TraceStore returns the ring of retained traces (the backing store of
// AdminMux's /debug/traces endpoints), or nil when the engine was built
// without WithTracing.
func (e *Engine) TraceStore() *obs.TraceStore { return e.tracer.Store() }

// Tracer returns the engine's tracer, nil when tracing is off. A nil
// tracer is a valid no-op receiver for its whole method set.
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// StartTrace opens a root span for a request that will issue one or more
// queries, so server handlers can put their own envelope (HTTP decode,
// response encode) on the waterfall and tie the response to a trace id
// (the X-Ceps-Trace-Id header). Queries issued with the returned context
// nest under it. The caller must End the span; with tracing off the span
// is nil and every operation on it no-ops.
func (e *Engine) StartTrace(ctx context.Context, name string) (context.Context, *obs.Span) {
	return e.tracer.StartRoot(ctx, name)
}

// CacheStats returns a snapshot of the score-cache counters. The second
// return is false when the engine was built without WithCache.
func (e *Engine) CacheStats() (CacheStats, bool) {
	if e.cache == nil {
		return CacheStats{}, false
	}
	return e.cache.Stats(), true
}

// CoalesceStats returns a snapshot of the solve coalescer's counters. The
// second return is false when the engine was built without WithCoalescing.
func (e *Engine) CoalesceStats() (CoalesceStats, bool) {
	if e.coal == nil {
		return CoalesceStats{}, false
	}
	return e.coal.Stats(), true
}

// ArtifactStats returns a snapshot of the precompute tier's counters. The
// second return is false when the engine was built without WithArtifactDir.
func (e *Engine) ArtifactStats() (ArtifactStats, bool) {
	if e.arts == nil {
		return ArtifactStats{}, false
	}
	return e.arts.Stats(), true
}

// Close releases resources the engine holds beyond garbage-collected
// memory: the flight recorder's evaluator goroutine (waiting out any
// in-flight bundle capture) and the mmapped artifact store. It is a no-op
// on an engine built with neither, and answers issued after Close on one
// built with WithArtifactDir are undefined.
func (e *Engine) Close() error {
	e.flight.Close()
	if e.artStore == nil {
		return nil
	}
	return e.artStore.Close()
}

// SetPartitioned installs Fast CePS state — built with PrePartition, or
// loaded from a snapshot — and subsequent Do calls answer on it; a nil pt
// removes it, reverting Do to full-graph CePS. Queries keep answering on
// the previous state until the swap, which is atomic. Partitioned reads
// the installed state.
func (e *Engine) SetPartitioned(pt *Partitioned) {
	e.mu.Lock()
	changed := pt != e.pt
	e.pt = pt
	e.mu.Unlock()
	// Hand-built Partitioned literals carry no unique identity, so two
	// successive installs could otherwise collide in the cache's union key
	// spaces; purging on swap closes that hole cheaply.
	if changed && pt != nil && e.cache != nil {
		e.cache.Purge()
	}
	if changed {
		e.rebindArtifacts()
	}
}

// Partitioned returns the engine's Fast CePS state, nil when none is
// installed.
func (e *Engine) Partitioned() *Partitioned {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.pt
}

// Prepare eagerly builds the cached transition matrix the full-graph query
// path uses, so the first Do call does not pay the O(M)
// normalization inside its deadline. In fast mode the same runner answers
// every Fast CePS fallback to the full graph, so Prepare readies the first
// fallback too. It is a no-op when the matrix is already built. Services
// that hand out tight per-query deadlines should call Prepare once at
// startup.
func (e *Engine) Prepare() error {
	cfg, _ := e.snapshot()
	_, err := e.runnerFor(cfg.RWR)
	return err
}

// runnerFor returns a full-graph runner whose cached matrix matches rc,
// building (and, when still current, publishing) one as needed. Queries
// running under an older snapshot after a reconfigure get a private
// runner rather than an error.
func (e *Engine) runnerFor(rc RWRConfig) (*core.Runner, error) {
	e.mu.RLock()
	published := [...]*core.Runner{e.runner, e.dgRunner, e.capRunner}
	e.mu.RUnlock()
	for _, r := range published {
		if r != nil && r.RWRConfig() == rc {
			return r, nil
		}
	}
	nr, err := core.NewRunner(e.g, rc)
	if err != nil {
		return nil, err
	}
	nr.WithServing(e.serving())
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case e.cfg.RWR == rc:
		if e.runner != nil && e.runner.RWRConfig() == rc {
			return e.runner, nil // another goroutine won the build race
		}
		e.runner = nr
	case e.res != nil && degradedRWR(e.cfg.RWR, e.res.Options(), false) == rc:
		// The breaker's degraded configs get their own published runners —
		// otherwise every degraded query would pay the O(M) matrix
		// normalization, defeating the point of a cheap fallback path.
		if e.dgRunner != nil && e.dgRunner.RWRConfig() == rc {
			return e.dgRunner, nil
		}
		e.dgRunner = nr
	case e.res != nil && degradedRWR(e.cfg.RWR, e.res.Options(), true) == rc:
		if e.capRunner != nil && e.capRunner.RWRConfig() == rc {
			return e.capRunner, nil
		}
		e.capRunner = nr
	}
	return nr, nil
}

// degradedRWR relaxes an RWR config to the breaker's cheap fallback shape:
// tolerance loosened to at least DegradedTol (so early stopping bites after
// a handful of sweeps) unless keepTol is set, and iterations capped at
// DegradedIterations.
func degradedRWR(rc RWRConfig, o ResilienceOptions, keepTol bool) RWRConfig {
	if !keepTol && rc.Tol < o.DegradedTol {
		rc.Tol = o.DegradedTol
	}
	if rc.Iterations > o.DegradedIterations {
		rc.Iterations = o.DegradedIterations
	}
	return rc
}

// degradeConfig applies degradedRWR to a query's config snapshot and
// builds the Degradation marker the result will carry. The relaxed config
// has a different fingerprint, so cached degraded vectors live in their own
// key space and can never be served to full-fidelity queries.
func degradeConfig(cfg Config, o ResilienceOptions, keepTol bool) (Config, *core.Degradation) {
	cfg.RWR = degradedRWR(cfg.RWR, o, keepTol)
	return cfg, &core.Degradation{
		Mode: "relaxed_tol",
		Reason: fmt.Sprintf("circuit breaker open: solved with tol=%g, iterations<=%d",
			cfg.RWR.Tol, cfg.RWR.Iterations),
	}
}

// breakerFailure classifies a query outcome for the circuit breaker.
// Caller mistakes (bad query/config) and caller hang-ups (pure
// cancellation) say nothing about service health; everything else —
// deadline misses, divergence, internal errors, pool-wait sheds — counts
// as a failure.
func breakerFailure(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, ErrBadQuery), errors.Is(err, ErrBadConfig):
		return false
	case errors.Is(err, ErrCanceled) && !errors.Is(err, ErrDeadlineExceeded):
		return false
	default:
		return true
	}
}

// ResilienceStats snapshots the resilience controller's counters; ok is
// false when the engine was built without WithResilience.
func (e *Engine) ResilienceStats() (ResilienceStats, bool) {
	if e.res == nil {
		return ResilienceStats{}, false
	}
	return e.res.Stats(), true
}

// BreakerState returns the circuit breaker's current state (BreakerClosed
// when resilience is off).
func (e *Engine) BreakerState() BreakerState {
	if e.res == nil {
		return BreakerClosed
	}
	return e.res.BreakerState()
}

// TopCenterPieces ranks the strongest center-piece candidates — Steps 1–2
// only — reusing the engine's cached matrix and score cache. Fast CePS
// state does not apply (ranking is over the full graph). It runs through
// the engine's request funnel (path "rank"); with the circuit breaker open
// it fails with ErrUnavailable, since a ranking cannot carry a Degraded
// marker.
func (e *Engine) TopCenterPieces(ctx context.Context, queries []int, topN int) (ranked []RankedNode, err error) {
	defer e.recoverToError(&err)
	a, err := serve(e, ctx, e.stepCall("rank", e.metrics.queriesRank, queries, func(ctx context.Context, r *core.Runner, cfg Config, a *stepAnswer) (err error) {
		a.ranked, err = r.TopCenterPiecesCtx(ctx, queries, cfg, topN, &a.stages)
		return err
	}))
	if err != nil {
		return nil, err
	}
	return a.ranked, nil
}

// InferK chooses a K_softAND coefficient from the mutual-support structure
// of the query set, reusing the engine's cached matrix and score cache.
// tau ≤ 0 uses the default support threshold. It runs through the
// engine's request funnel (path "infer_k"); with the circuit breaker open
// it fails with ErrUnavailable, since an inferred k cannot carry a
// Degraded marker.
func (e *Engine) InferK(ctx context.Context, queries []int, tau float64) (k int, supports []int, err error) {
	defer e.recoverToError(&err)
	a, err := serve(e, ctx, e.stepCall("infer_k", e.metrics.queriesInferK, queries, func(ctx context.Context, r *core.Runner, cfg Config, a *stepAnswer) (err error) {
		a.k, a.supports, err = r.InferKCtx(ctx, queries, cfg, tau, &a.stages)
		return err
	}))
	if err != nil {
		return 0, nil, err
	}
	return a.k, a.supports, nil
}

// stepAnswer is the answer of the query types that stop after Steps 1–2
// (TopCenterPieces, InferK). Their public results have no room for stage
// timings, so the funnel reads them here.
type stepAnswer struct {
	ranked   []RankedNode
	k        int
	supports []int
	stages   core.StageTimings
}

// stepCall describes a Steps 1–2 call to the request funnel: path is its
// span name and slow-log path, count its ceps_queries_total series, and
// step runs it on the full-graph runner of the engine's current
// configuration. Its latency is ceps_query_duration_seconds. Neither
// answer can carry a Degraded marker, so the breaker's degrade route
// refuses it.
func (e *Engine) stepCall(path string, count *obs.Counter, queries []int, step func(context.Context, *core.Runner, Config, *stepAnswer) error) call[*stepAnswer] {
	cfg, _ := e.snapshot()
	return call[*stepAnswer]{
		span:      path,
		attrs:     []obs.Attr{obs.Int("queries", len(queries))},
		queries:   queries,
		cfg:       cfg,
		noDegrade: true,
		run: func(ctx context.Context, cfg Config) (*stepAnswer, error) {
			runner, err := e.runnerFor(cfg.RWR)
			if err != nil {
				return nil, err
			}
			a := new(stepAnswer)
			if err := step(ctx, runner, cfg, a); err != nil {
				return nil, err
			}
			return a, nil
		},
		settle: func(a *stepAnswer, span *obs.Span, _ *core.Degradation) outcome {
			o := outcome{count: count, latency: e.metrics.durTotal, path: path}
			span.SetAttr(obs.Str("path", path))
			if a != nil {
				o.stages, o.nodes = &a.stages, e.g.N()
			}
			return o
		},
	}
}

// QueryAutoK infers the K_softAND coefficient with InferK and answers the
// query with it; the chosen k is recoverable from the result's Combiner.
// The inference pass and the query run as one request through the
// engine's funnel and share the score cache, so the second step reuses
// the first's solves; the answer's Stages include the inference solves.
func (e *Engine) QueryAutoK(ctx context.Context, queries ...int) (res *Result, err error) {
	defer e.recoverToError(&err)
	cfg, pt := e.snapshot()
	return serve(e, ctx, e.autoKCall(cfg, pt, queries))
}

// autoKCall is queryCall with the K_softAND inference pass in its run
// step, ahead of the query. The inference walks run on the full graph, so
// in fast mode the rows counter, which multiplies by the work graph,
// undercounts them.
func (e *Engine) autoKCall(cfg Config, pt *Partitioned, queries []int) call[*Result] {
	c := e.queryCall(cfg, pt, queries)
	query := c.run
	c.run = func(ctx context.Context, cfg Config) (*Result, error) {
		runner, err := e.runnerFor(cfg.RWR)
		if err != nil {
			return nil, err
		}
		var inf core.StageTimings
		k, _, err := runner.InferKCtx(ctx, queries, cfg, 0, &inf)
		if err != nil {
			return nil, err
		}
		cfg.K = k
		obs.SpanFromContext(ctx).SetAttr(obs.Int("k", k))
		res, err := query(ctx, cfg)
		if err != nil {
			return nil, err
		}
		res.Stages.AddSolve(inf)
		return res, nil
	}
	return c
}

// recoverToError converts a panic on the public Engine boundary into an
// error wrapping ErrInternal, preserving the panic value in the message
// and counting the recovery in ceps_panics_recovered_total.
func (e *Engine) recoverToError(err *error) {
	if r := recover(); r != nil {
		e.metrics.panics.Inc()
		*err = fmt.Errorf("%w: recovered panic: %v", ErrInternal, r)
	}
}
