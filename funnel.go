package ceps

import (
	"context"
	"fmt"
	"time"

	"ceps/internal/core"
	"ceps/internal/obs"
	"ceps/internal/resilience"
)

// This file is the request funnel: the one path every query type — Do,
// QueryAutoK, ReplaceSubteam, TopCenterPieces and InferK — takes between
// its public method and the pipeline. The funnel owns admission, the
// breaker's routing, the in-flight gauge, panic recovery and every
// observation (span, metrics, slow log, SLO windows), so each signal
// follows one rule for every type on every exit. A query type supplies
// only what differs between types: a call.

// call is one request as the funnel sees it. T is the answer its run step
// returns.
type call[T any] struct {
	span    string     // span name
	attrs   []obs.Attr // the span's opening attributes
	queries []int      // the query set the slow log records
	cfg     Config     // the snapshot the run step solves under
	// noDegrade refuses the breaker's degrade route with ErrUnavailable
	// instead of running under a relaxed cfg. It is a fixed property of the
	// call type: the Steps 1–2 types (stepCall), whose answers cannot carry
	// a Degraded marker, set it. The engine-wide switch is
	// ResilienceOptions.NoDegrade.
	noDegrade bool
	// keepTol makes the degrade route apply only the iteration cap and
	// keep cfg's tolerance. ReplaceSubteam sets it: its top-N certificate
	// needs exact-tolerance walks, and without the certificate a degraded
	// request would solve every candidate's walk.
	keepTol bool
	run     func(ctx context.Context, cfg Config) (T, error)
	// settle stamps the span's trace id and the breaker's degradation (nil
	// unless the call ran on the degrade route and succeeded) onto the
	// answer, sets the type's own closing span attributes, and reports what
	// the observers read. res is the zero T when the call failed or was
	// refused.
	settle func(res T, span *obs.Span, degraded *core.Degradation) outcome
}

// outcome is what the funnel's observers read of one finished call.
type outcome struct {
	count    *obs.Counter       // the type's request counter series
	latency  *obs.Histogram     // the type's latency histogram
	path     string             // the slow log's path field
	stages   *core.StageTimings // nil when the call produced no answer
	nodes    int                // work-graph nodes: solve rows are SolveSweeps × nodes
	degraded *core.Degradation
	fallback string // the Fast CePS fallback reason, "" otherwise
}

// serve runs c through the funnel: admission → breaker route → in-flight
// gauge → run → observe. Its observation rules, the same for every query
// type and every exit:
//
//   - every call counts in its request counter, refusals included;
//   - only admitted calls feed the latency histogram, so microsecond
//     refusals cannot drag down the p90 the admission budget reads;
//   - the stage, kernel, row and degradation series read the answer's
//     StageTimings;
//   - errors are classified by observeErr;
//   - exactly one span per call, always ended, with shed=<reason> on sheds
//     and breaker refusals (breaker_open);
//   - one slow-log entry (threshold permitting) and one SLO outcome;
//   - one breaker observation per admitted run, none for refusals.
//
// A panic in the run step surfaces as ErrInternal before anything is
// observed, counted once in ceps_panics_recovered_total.
func serve[T any](e *Engine, ctx context.Context, c call[T]) (res T, err error) {
	start := time.Now()
	ctx, span := e.startSpan(ctx, c.span)
	span.SetAttr(c.attrs...)
	var (
		cfg      = c.cfg
		release  func()
		refused  bool
		probe    bool
		shed     string
		degraded *core.Degradation
	)
	// Resilience gate: admission first (bounded queue, deadline budget,
	// CoDel), then the breaker's routing decision. Both are skipped —
	// leaving answers bit-identical — when WithResilience was not given.
	if e.res != nil {
		release, err = e.res.Admit(ctx)
		refused = err != nil
		if !refused {
			switch e.res.Route() {
			case resilience.RouteProbe:
				probe = true
			case resilience.RouteDegrade:
				if c.noDegrade || e.res.Options().NoDegrade {
					release()
					refused, shed = true, "breaker_open"
					err = fmt.Errorf("%w: circuit breaker open", ErrUnavailable)
				} else {
					cfg, degraded = degradeConfig(cfg, e.res.Options(), c.keepTol)
				}
			}
		}
	}
	if !refused {
		e.metrics.inflight.Add(1)
		res, err = func() (res T, err error) {
			defer e.metrics.inflight.Add(-1)
			if release != nil {
				defer release()
			}
			defer e.recoverToError(&err)
			return c.run(ctx, cfg)
		}()
		if e.res != nil {
			e.res.Observe(breakerFailure(err), probe)
		}
	}
	if err != nil {
		degraded = nil
	}
	if shed == "" {
		shed = ShedReason(err)
	}
	elapsed := time.Since(start)
	o := c.settle(res, span, degraded)
	if span.Recording() {
		if shed != "" {
			span.SetAttr(obs.Str("shed", shed))
		}
		if st := o.stages; st != nil {
			span.SetAttr(obs.Str("solve_kernel", st.SolveKernel),
				obs.Int("solve_sweeps", st.SolveSweeps),
				obs.Int("cache_hits", st.CacheHits),
				obs.Int("cache_misses", st.CacheMisses),
				obs.Int("artifact_hits", st.ArtifactHits))
		}
		if o.degraded != nil {
			span.SetAttr(obs.Str("degraded", o.degraded.Mode),
				obs.Str("degraded_reason", o.degraded.Reason))
		}
		span.SetError(err)
	}
	span.End()
	e.metrics.observe(o, err, elapsed, !refused)
	e.recordSlow(c.queries, o, shed, err, elapsed, span.TraceID())
	e.flight.ObserveQuery(flightOutcome(o.stages, err, elapsed))
	return res, err
}

// startSpan opens a call's span: nested under the caller's span when ctx
// already carries one (an Engine.StartTrace envelope, e.g. the HTTP
// handler's), otherwise as a new root trace. With tracing off both yield a
// nil span.
func (e *Engine) startSpan(ctx context.Context, name string) (context.Context, *obs.Span) {
	if obs.SpanFromContext(ctx) != nil {
		return obs.StartSpan(ctx, name)
	}
	return e.tracer.StartRoot(ctx, name)
}
