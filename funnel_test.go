package ceps

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"ceps/internal/core"
	"ceps/internal/obs"
)

// TestFunnelObservationTable pins the request funnel's observation rules:
// every query type, on every exit, yields exactly the signals serve
// documents — one request count, latency only when admitted, stage series
// from the answer, one span (always ended), one slow-log line, one SLO
// outcome, and one breaker observation per admitted run.
//
// The breaker is set up so that its feed is visible: for the exits that run
// (ok, bad query, panic) it is tripped beforehand with a 1ns cool-down, so
// the call is routed as the half-open probe; a success observation closes
// the breaker and a failure re-opens it, while a missing one leaves it
// half-open.
func TestFunnelObservationTable(t *testing.T) {
	ds := funnelDataset(t)
	for _, ty := range funnelTypes(ds) {
		for _, ex := range []string{"ok", "bad_query", "shed", "breaker_open", "degraded", "panic"} {
			t.Run(ty.name+"/"+ex, func(t *testing.T) { runFunnelCell(t, ds, ty, ex) })
		}
	}
}

func funnelDataset(t *testing.T) *Dataset {
	t.Helper()
	cfg := ScaleDBLP(DefaultDBLPConfig(), 0.1)
	cfg.Seed = 42
	ds, err := GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// funnelAnswer is what a cell reads of a successful call. stages is nil for
// the types whose public answer does not carry them (rank, infer_k).
type funnelAnswer struct {
	stages   *StageTimings
	nodes    int // work-graph nodes
	fallback bool
	degraded *Degradation
}

type funnelType struct {
	name       string
	span       string // root span name
	fast       bool   // engine in fast mode
	degradable bool   // answers on the breaker's degrade route
	// counter is the request-counter key of a call without an answer, and
	// of an answer unless it fell back to the full graph (fast_fallback).
	counter, latency string
	// invoke runs the type's public method on qs (bad = an out-of-range
	// set).
	invoke func(e *Engine, qs []int) (*funnelAnswer, error)
	// panicky runs the type's call through the funnel with a run step
	// that panics.
	panicky func(e *Engine, qs []int) error
}

// panicRun replaces c's run step with one that panics and serves it.
func panicRun[T any](e *Engine, c call[T]) error {
	c.run = func(context.Context, Config) (T, error) { panic("injected run-step panic") }
	_, err := serve(e, context.Background(), c)
	return err
}

func funnelTypes(ds *Dataset) []funnelType {
	ctx := context.Background()
	fromResult := func(res *Result, err error) (*funnelAnswer, error) {
		if err != nil {
			return nil, err
		}
		return &funnelAnswer{stages: &res.Stages, nodes: res.WorkGraph.N(), fallback: res.Fallback != nil, degraded: res.Degraded}, nil
	}
	queryPanic := func(e *Engine, qs []int) error {
		cfg, pt := e.snapshot()
		return panicRun(e, e.queryCall(cfg, pt, qs))
	}
	n := ds.Graph.N()
	return []funnelType{
		{
			name: "do_full", span: "query", degradable: true, counter: "queries_full", latency: "dur_query",
			invoke:  func(e *Engine, qs []int) (*funnelAnswer, error) { return fromResult(e.Do(ctx, qs)) },
			panicky: queryPanic,
		},
		{
			name: "do_fast", span: "query", fast: true, degradable: true, counter: "queries_fast", latency: "dur_query",
			invoke:  func(e *Engine, qs []int) (*funnelAnswer, error) { return fromResult(e.Do(ctx, qs)) },
			panicky: queryPanic,
		},
		{
			// A library batch item is the same call as Do, issued from a
			// goroutine of the caller's fan-out.
			name: "batch_item", span: "query", degradable: true, counter: "queries_full", latency: "dur_query",
			invoke: func(e *Engine, qs []int) (*funnelAnswer, error) {
				var (
					res  *Result
					err  error
					done = make(chan struct{})
				)
				go func() {
					defer close(done)
					res, err = e.Do(ctx, qs)
				}()
				<-done
				return fromResult(res, err)
			},
			panicky: queryPanic,
		},
		{
			name: "replace", span: "replace", degradable: true, counter: "replace_two_hop", latency: "dur_replace",
			invoke: func(e *Engine, qs []int) (*funnelAnswer, error) {
				res, err := e.ReplaceSubteam(ctx, qs, WithDeparting(qs[1]))
				if err != nil {
					return nil, err
				}
				return &funnelAnswer{stages: &res.Stages, nodes: n, degraded: res.Degraded}, nil
			},
			panicky: func(e *Engine, qs []int) error {
				cfg, _ := e.snapshot()
				return panicRun(e, e.replaceCall(cfg, core.ReplaceSpec{Team: qs, Departing: qs[1:2]}))
			},
		},
		{
			name: "auto_k", span: "query", degradable: true, counter: "queries_full", latency: "dur_query",
			invoke: func(e *Engine, qs []int) (*funnelAnswer, error) { return fromResult(e.QueryAutoK(ctx, qs...)) },
			panicky: func(e *Engine, qs []int) error {
				cfg, pt := e.snapshot()
				return panicRun(e, e.autoKCall(cfg, pt, qs))
			},
		},
		{
			name: "rank", span: "rank", counter: "queries_rank", latency: "dur_query",
			invoke: func(e *Engine, qs []int) (*funnelAnswer, error) {
				if _, err := e.TopCenterPieces(ctx, qs, 5); err != nil {
					return nil, err
				}
				return &funnelAnswer{nodes: n}, nil
			},
			panicky: func(e *Engine, qs []int) error {
				return panicRun(e, e.stepCall("rank", e.metrics.queriesRank, qs, nil))
			},
		},
		{
			name: "infer_k", span: "infer_k", counter: "queries_infer_k", latency: "dur_query",
			invoke: func(e *Engine, qs []int) (*funnelAnswer, error) {
				if _, _, err := e.InferK(ctx, qs, 0); err != nil {
					return nil, err
				}
				return &funnelAnswer{nodes: n}, nil
			},
			panicky: func(e *Engine, qs []int) error {
				return panicRun(e, e.stepCall("infer_k", e.metrics.queriesInferK, qs, nil))
			},
		},
	}
}

// funnelSnapshot reads every engine series a call may move.
func funnelSnapshot(e *Engine) map[string]float64 {
	m := e.metrics
	out := map[string]float64{
		"inflight":           m.inflight.Value(),
		"dur_query":          float64(m.durTotal.Count()),
		"dur_replace":        float64(m.replaceDur.Count()),
		"stage_partition":    float64(m.durPartition.Count()),
		"stage_solve":        float64(m.durSolve.Count()),
		"stage_combine":      float64(m.durCombine.Count()),
		"stage_extract":      float64(m.durExtract.Count()),
		"replace_candidates": float64(m.replaceCandidates.Count()),
	}
	for k, c := range map[string]*obs.Counter{
		"queries_full": m.queriesFull, "queries_fast": m.queriesFast, "queries_fast_fallback": m.queriesFallback,
		"queries_rank": m.queriesRank, "queries_infer_k": m.queriesInferK,
		"replace_two_hop": m.replaceTwoHop, "replace_densest": m.replaceDensest, "replace_explicit": m.replaceExplicit,
		"err_canceled": m.errCanceled, "err_deadline": m.errDeadline, "err_diverged": m.errDiverged,
		"err_bad_query": m.errBadQuery, "err_bad_config": m.errBadConfig, "err_degenerate": m.errDegenerate,
		"err_internal": m.errInternal, "err_unavailable": m.errUnavailable, "err_other": m.errOther,
		"shed_pool_wait": m.shedPoolWait, "shed_coalesce_wait": m.shedCoalesceWait,
		"degraded_relaxed_tol": m.degradedRelaxed, "degraded_full_graph_fallback": m.degradedFallback,
		"solves_blocked": m.solvesBlocked, "solves_artifact": m.solvesArtifact, "solve_rows": m.solveRows,
		"panics": m.panics, "slow": m.slow,
	} {
		out[k] = float64(c.Value())
	}
	return out
}

// sloEvents is the shed-rate objective's 1m event count (every request is
// one event) and how many of them were sheds.
func sloEvents(t *testing.T, e *Engine) (total, shed uint64) {
	t.Helper()
	for _, o := range e.flight.Status().Objectives {
		if o.Name == "shed_rate" {
			return o.Windows[0].Good + o.Windows[0].Bad, o.Windows[0].Bad
		}
	}
	t.Fatal("no shed_rate objective")
	return 0, 0
}

func runFunnelCell(t *testing.T, ds *Dataset, ty funnelType, exit string) {
	cfg := DefaultConfig()
	cfg.RWR.Iterations = 25
	cfg.Budget = 10
	// ok, bad_query and panic run as the half-open probe (see the test
	// comment); the breaker-routed exits keep it open.
	openFor := time.Nanosecond
	if exit == "shed" || exit == "breaker_open" || exit == "degraded" {
		openFor = time.Hour
	}
	var slow bytes.Buffer
	opts := []Option{
		WithConfig(cfg), WithCache(8 << 20),
		WithTracing(TracingOptions{SampleRate: 1}),
		WithSlowQueryLog(&slow, 0),
		WithFlightRecorder(FlightRecorderOptions{Dir: t.TempDir(), CPUProfile: -1}),
		WithResilience(ResilienceOptions{
			MaxConcurrent: 1, MaxQueue: -1,
			MinSamples: 1, FailureRate: 1, HalfOpenProbes: 1, OpenFor: openFor,
			NoDegrade: exit == "breaker_open",
		}),
	}
	e, err := NewEngine(ds.Graph, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if ty.fast {
		pt, err := PrePartition(context.Background(), ds.Graph, 4, PartitionOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		e.SetPartitioned(pt)
	}

	qs := append([]int(nil), ds.Repository[0][:4]...)
	switch exit {
	case "bad_query":
		qs[0] = -1
	case "shed":
		release, err := e.res.Admit(context.Background()) // hold the only slot
		if err != nil {
			t.Fatal(err)
		}
		defer release()
	}
	if exit != "shed" {
		e.res.Observe(true, false) // trip the breaker
	}

	before, traces := funnelSnapshot(e), e.tracer.Store().Stats().Added
	sloBefore, sloShedBefore := sloEvents(t, e)
	var ans *funnelAnswer
	if exit == "panic" {
		err = ty.panicky(e, qs)
	} else {
		ans, err = ty.invoke(e, qs)
	}

	// The outcome each exit must produce.
	refusedDegrade := exit == "degraded" && !ty.degradable
	var (
		admitted = exit == "ok" || exit == "bad_query" || exit == "panic" || (exit == "degraded" && ty.degradable)
		shed     string
		wantErr  error
		errKind  string
	)
	switch {
	case exit == "bad_query":
		wantErr, errKind = ErrBadQuery, "err_bad_query"
	case exit == "shed":
		wantErr, shed = ErrOverloaded, "queue_full"
	case exit == "breaker_open" || refusedDegrade:
		wantErr, errKind, shed = ErrUnavailable, "err_unavailable", "breaker_open"
	case exit == "panic":
		wantErr, errKind = ErrInternal, "err_internal"
	}
	if wantErr == nil {
		if err != nil || ans == nil {
			t.Fatalf("err = %v, want an answer", err)
		}
	} else if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if exit == "degraded" && ty.degradable && (ans.degraded == nil || ans.degraded.Mode != "relaxed_tol") {
		t.Fatalf("degraded answer carries %v, want relaxed_tol", ans.degraded)
	}

	// Span: exactly one, ended, with the rule's attributes.
	if open := e.tracer.OpenSpans(); open != 0 {
		t.Errorf("%d spans left open", open)
	}
	var root obs.SpanData
	if added := e.tracer.Store().Stats().Added - traces; added != 1 {
		t.Errorf("call recorded %d traces, want 1", added)
	} else {
		for _, s := range e.tracer.Store().List(1, 0)[0].Spans {
			if s.ParentID == 0 {
				root = s
			}
		}
	}
	if root.Name != ty.span {
		t.Errorf("root span %q, want %q", root.Name, ty.span)
	}
	if got, _ := root.Attrs["shed"].(string); got != shed {
		t.Errorf("span shed = %q, want %q", got, shed)
	}
	if (root.Error != "") != (err != nil) {
		t.Errorf("span error %q for call error %v", root.Error, err)
	}
	for _, k := range []string{"solve_kernel", "solve_sweeps", "cache_hits", "cache_misses", "artifact_hits"} {
		if _, ok := root.Attrs[k]; ok != (ans != nil) {
			t.Errorf("span attr %s present = %v, want %v", k, ok, ans != nil)
		}
	}
	_, hasDegraded := root.Attrs["degraded"]
	if wantDegraded := ans != nil && ans.degraded != nil; hasDegraded != wantDegraded {
		t.Errorf("span degraded attr present = %v, want %v", hasDegraded, wantDegraded)
	}
	sweeps, _ := root.Attrs["solve_sweeps"].(int)
	kernel, _ := root.Attrs["solve_kernel"].(string)
	if ans != nil && ans.stages != nil && (sweeps != ans.stages.SolveSweeps || kernel != ans.stages.SolveKernel) {
		t.Errorf("span solve attrs %d/%q, answer stages %d/%q", sweeps, kernel, ans.stages.SolveSweeps, ans.stages.SolveKernel)
	}

	// Metrics: exactly the rule's deltas, every other series still.
	want := map[string]float64{"slow": 1}
	counter := ty.counter
	if ans != nil && ans.fallback {
		counter = "queries_fast_fallback"
	}
	want[counter] = 1
	if admitted {
		want[ty.latency] = 1
	}
	if errKind != "" {
		want[errKind] = 1
	}
	if exit == "panic" {
		want["panics"] = 1
	}
	if ans != nil {
		want["stage_solve"] = 1
		if st := ans.stages; st != nil {
			for k, d := range map[string]time.Duration{"stage_partition": st.Partition, "stage_combine": st.Combine, "stage_extract": st.Extract} {
				if d > 0 {
					want[k] = 1
				}
			}
		}
		if kernel == "blocked" || kernel == "artifact" {
			want["solves_"+kernel] = 1
		}
		want["solve_rows"] = float64(sweeps * ans.nodes)
		if ans.degraded != nil {
			want["degraded_"+ans.degraded.Mode] = 1
		}
		if ty.name == "replace" {
			want["replace_candidates"] = 1
		}
	}
	after := funnelSnapshot(e)
	for k := range want {
		if _, ok := after[k]; !ok {
			t.Errorf("no series %s", k)
		}
	}
	for k, v := range after {
		if d := v - before[k]; d != want[k] {
			t.Errorf("%s moved by %v, want %v", k, d, want[k])
		}
	}

	// Slow log: one line, with the type's path and the exit's fields.
	var entry SlowQueryEntry
	if n := strings.Count(slow.String(), "\n"); n != 1 {
		t.Errorf("slow log has %d lines, want 1:\n%s", n, slow.String())
	} else if err := json.Unmarshal(slow.Bytes(), &entry); err != nil {
		t.Fatal(err)
	}
	switch ty.span {
	case "query":
		if entry.Path != "full" && entry.Path != "fast" && entry.Path != "fast_fallback" {
			t.Errorf("slow-log path %q", entry.Path)
		}
	default:
		if entry.Path != ty.span {
			t.Errorf("slow-log path %q, want %q", entry.Path, ty.span)
		}
	}
	if entry.Shed != shed || (entry.Error != "") != (err != nil) || (entry.SolveKernel != "") != (ans != nil && kernel != "") {
		t.Errorf("slow-log entry %+v for exit %s", entry, exit)
	}

	// SLO: one outcome, a shed exactly when the call was shed.
	sloAfter, sloShedAfter := sloEvents(t, e)
	if sloAfter-sloBefore != 1 {
		t.Errorf("SLO windows saw %d events, want 1", sloAfter-sloBefore)
	}
	wantShed := uint64(0)
	if exit == "shed" {
		wantShed = 1
	}
	if got := sloShedAfter - sloShedBefore; got != wantShed {
		t.Errorf("SLO shed events %d, want %d", got, wantShed)
	}

	// Breaker: fed once per admitted run, never by a refusal.
	st := e.res.Stats()
	type transitions struct{ open, halfOpen, closed int64 }
	var wantTr transitions
	switch {
	case exit == "ok" || exit == "bad_query":
		wantTr = transitions{1, 1, 1} // the probe's success closed it
	case exit == "panic":
		wantTr = transitions{2, 1, 0} // the probe's failure re-opened it
	default:
		// shed: the admission controller counts a queue-full shed as a
		// saturation failure itself, which trips this breaker; the funnel
		// adds nothing.
		wantTr = transitions{1, 0, 0}
	}
	if got := (transitions{st.ToOpen, st.ToHalfOpen, st.ToClosed}); got != wantTr {
		t.Errorf("breaker transitions open/half-open/closed = %v, want %v", got, wantTr)
	}
}
