package ceps

import (
	"errors"
	"fmt"
	"log"
	"time"

	"ceps/internal/core"
	"ceps/internal/obs"
	"ceps/internal/resilience"
)

// FlightRecorderOptions configures WithFlightRecorder. Only Dir is
// required; every zero field picks the production default documented on
// the corresponding obs.FlightOptions field.
type FlightRecorderOptions struct {
	// Dir is the bundle directory (created if missing). Required.
	Dir string
	// DiskBudgetBytes bounds the bundle directory; oldest bundles are
	// evicted past it. Default 256 MiB.
	DiskBudgetBytes int64
	// CPUProfile is how long each bundle's CPU profile samples for.
	// Default 2s; negative disables the CPU profile.
	CPUProfile time.Duration
	// TraceCount is how many kept traces a bundle includes. Default 32.
	TraceCount int
	// Objectives overrides the tracked SLO set. Default: the stock
	// objectives (latency p99 ≤ 250ms @ 99%, error rate 99.9%, shed rate
	// 99%, cache hit rate 80%), plus artifact hit rate when the engine has
	// a precompute tier attached.
	Objectives []Objective
	// EvalInterval is the anomaly-detector tick. Default 1s.
	EvalInterval time.Duration
	// Debounce is the global capture cooldown across all trigger kinds,
	// guaranteeing one bundle per incident. Default 2m.
	Debounce time.Duration
}

// WithFlightRecorder arms the flight recorder: declarative SLOs evaluated
// over 1m/5m/1h sliding windows with burn-rate alerting, anomaly detectors
// (burn-rate breach, latency spike, shed surge, cache hit-rate collapse,
// breaker open) whose triggers capture a diagnostic bundle — CPU/heap/
// goroutine profiles, recent traces, a metrics snapshot, and subsystem
// stats as one .tar.gz under Dir — and the /debug/slo, /debug/flight and
// /debug/dashboard admin surfaces. Recording only reads finished results:
// answers stay bit-identical to a disarmed engine, and the hot-path cost
// is two mutex-protected window updates per query.
func WithFlightRecorder(o FlightRecorderOptions) Option {
	return func(ec *engineConfig) error {
		if o.Dir == "" {
			return fmt.Errorf("%w: flight recorder needs a bundle directory", ErrBadConfig)
		}
		if o.EvalInterval < 0 || o.Debounce < 0 || o.TraceCount < 0 {
			return fmt.Errorf("%w: negative flight recorder interval/debounce/trace count", ErrBadConfig)
		}
		ec.flight = &o
		return nil
	}
}

// armFlightRecorder builds the obs.FlightRecorder against the fully
// assembled engine (metrics, tracer, serving tiers, resilience) — it must
// run last in NewEngine so the stat sources and the artifact-aware
// objective set see their final state.
func (e *Engine) armFlightRecorder(o FlightRecorderOptions) error {
	objectives := o.Objectives
	if len(objectives) == 0 {
		objectives = obs.DefaultObjectives()
		if e.arts != nil {
			// Only meaningful with a precompute tier: the windows would
			// otherwise never see an event. NoBurnAlert for the same reason
			// as the cache objective — a cold tier is not an incident.
			objectives = append(objectives, Objective{
				Name: "artifact_hit_rate", Kind: obs.ObjectiveArtifactHitRate,
				Target: 0.50, NoBurnAlert: true,
			})
		}
	}
	// Bundle stat sources snapshot every serving subsystem at capture time;
	// subsystems the engine was built without serve JSON null.
	stats := []obs.StatSource{
		{Name: "cache", Fn: func() any {
			if st, ok := e.CacheStats(); ok {
				return st
			}
			return nil
		}},
		{Name: "coalescer", Fn: func() any {
			if st, ok := e.CoalesceStats(); ok {
				return st
			}
			return nil
		}},
		{Name: "artifacts", Fn: func() any {
			if st, ok := e.ArtifactStats(); ok {
				return st
			}
			return nil
		}},
		{Name: "resilience", Fn: func() any {
			if st, ok := e.ResilienceStats(); ok {
				return st
			}
			return nil
		}},
	}
	fr, err := obs.NewFlightRecorder(obs.FlightOptions{
		Dir:             o.Dir,
		DiskBudgetBytes: o.DiskBudgetBytes,
		CPUProfile:      o.CPUProfile,
		TraceCount:      o.TraceCount,
		Objectives:      objectives,
		EvalInterval:    o.EvalInterval,
		Debounce:        o.Debounce,
		Registry:        e.metrics.reg,
		Traces:          e.tracer.Store(),
		Stats:           stats,
		Histograms: []obs.TrackedHistogram{
			{Name: "query", H: e.metrics.durTotal},
			{Name: "stage_partition", H: e.metrics.durPartition},
			{Name: "stage_solve", H: e.metrics.durSolve},
			{Name: "stage_combine", H: e.metrics.durCombine},
			{Name: "stage_extract", H: e.metrics.durExtract},
		},
		Logf: log.Printf,
	})
	if err != nil {
		return fmt.Errorf("%w: flight recorder: %v", ErrBadConfig, err)
	}
	e.flight = fr
	if e.res != nil {
		e.res.OnStateChange(func(from, to resilience.State) {
			e.flight.NoteBreakerState(from.String(), to.String())
		})
	}
	return nil
}

// FlightRecorder returns the armed flight recorder, nil when the engine
// was built without WithFlightRecorder. A nil recorder is a valid no-op
// receiver for its whole method set, matching the tracer convention.
func (e *Engine) FlightRecorder() *obs.FlightRecorder { return e.flight }

// flightOutcome classifies one finished call for the SLO windows. The
// split mirrors the metrics layer: ErrOverloaded is load shedding (the
// shed-rate objective's signal, excluded from latency/error budgets);
// caller mistakes and pure hang-ups say nothing about service health, so
// they reuse the breaker's failure classification. st is nil when the call
// produced no answer.
func flightOutcome(st *core.StageTimings, err error, elapsed time.Duration) obs.QueryOutcome {
	o := obs.QueryOutcome{Latency: elapsed}
	switch {
	case err == nil:
	case errors.Is(err, ErrOverloaded):
		o.Shed = true
	default:
		o.Err = breakerFailure(err)
	}
	if st != nil {
		o.CacheHits = st.CacheHits
		o.CacheMisses = st.CacheMisses
		o.ArtifactHits = st.ArtifactHits
	}
	return o
}
