package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ceps"
	"ceps/internal/rwr"
)

// This file is the subteam-replacement serving surface of the CLI: the
// `ceps replace` verb and the POST /v1/replace endpoint, both mapping
// field-for-field onto Engine.ReplaceSubteam. Graph files carry only the
// projected co-authorship graph (no author–paper incidence), so both
// surfaces score structural overlap with the projected-graph kernel; the
// bipartite kernel is reachable through the Go API's WithBipartite.

// replaceRequestV1 is the POST /v1/replace schema:
//
//	{
//	  "team": [1, 2, 3],          // node ids — or "team_q": "Alice,Bob" (ids or labels)
//	  "departing": [2],           // required; or "departing_q": "Bob"
//	  "candidates": [7, 9],       // optional explicit pool (team members filtered)
//	  "pool": "densest",          // optional: "two_hop" (default) | "densest"
//	  "top_n": 5,                 // ranking size (0 = 10, negative = whole pool)
//	  "max_candidates": 128,      // pool cap (0 = 256, negative = unlimited)
//	  "weight_rwr": 0.7,          // optional blend override (give both weights)
//	  "weight_overlap": 0.3,
//	  "timeout_ms": 250           // per-request deadline (caps the server default)
//	}
//
// As on /v1/query, degrading and coalescing are server settings; a body
// naming any other field is a 400.
type replaceRequestV1 struct {
	Team          []int    `json:"team,omitempty"`
	TeamQ         string   `json:"team_q,omitempty"`
	Departing     []int    `json:"departing,omitempty"`
	DepartingQ    string   `json:"departing_q,omitempty"`
	Candidates    []int    `json:"candidates,omitempty"`
	Pool          string   `json:"pool,omitempty"`
	TopN          int      `json:"top_n,omitempty"`
	MaxCandidates int      `json:"max_candidates,omitempty"`
	WeightRWR     *float64 `json:"weight_rwr,omitempty"`
	WeightOverlap *float64 `json:"weight_overlap,omitempty"`
	TimeoutMS     int      `json:"timeout_ms,omitempty"`
}

// jsonReplacement is one ranked candidate of a replace response.
type jsonReplacement struct {
	Node         int     `json:"node"`
	Label        string  `json:"label,omitempty"`
	Score        float64 `json:"score"`
	RWRProximity float64 `json:"rwr_proximity"`
	Overlap      float64 `json:"overlap"`
}

// jsonReplaceResult is the /v1/replace (and `ceps replace -json`) response.
type jsonReplaceResult struct {
	Team         []int             `json:"team"`
	Departing    []int             `json:"departing"`
	Remaining    []int             `json:"remaining"`
	PoolStrategy string            `json:"pool_strategy"`
	PoolSize     int               `json:"pool_size"`
	Replacements []jsonReplacement `json:"replacements"`
	SolveKernel  string            `json:"solve_kernel,omitempty"`
	SolveSweeps  int               `json:"solve_sweeps,omitempty"`
	CacheHits    int               `json:"cache_hits"`
	CacheMisses  int               `json:"cache_misses"`
	Degraded     string            `json:"degraded,omitempty"`
	ElapsedMS    float64           `json:"elapsed_ms"`
	TraceID      string            `json:"trace_id,omitempty"`
}

// decodeReplaceRequestV1 parses a POST /v1/replace body against the graph
// and resolves the team/departing node sets. Like the other v1 decoders it
// is a pure function over its inputs (fuzzable; every failure is a client
// error, never a panic).
func decodeReplaceRequestV1(g *ceps.Graph, body []byte) (req replaceRequestV1, team, departing []int, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, nil, nil, fmt.Errorf("bad request body: %w", err)
	}
	if dec.More() {
		return req, nil, nil, fmt.Errorf("bad request body: trailing data after JSON object")
	}
	team, departing, err = resolveReplaceRequestV1(g, &req)
	return req, team, departing, err
}

// resolveReplaceRequestV1 validates a decoded replace request and resolves
// its team and departing member sets.
func resolveReplaceRequestV1(g *ceps.Graph, req *replaceRequestV1) (team, departing []int, err error) {
	resolve := func(ids []int, q, idsField, qField string) ([]int, error) {
		switch {
		case len(ids) > 0 && q != "":
			return nil, fmt.Errorf("set %q or %q, not both", idsField, qField)
		case len(ids) > 0:
			for _, id := range ids {
				if id < 0 || id >= g.N() {
					return nil, fmt.Errorf("%s id %d out of range [0,%d)", idsField, id, g.N())
				}
			}
			return ids, nil
		case q != "":
			return parseQueries(g, q)
		default:
			return nil, fmt.Errorf("%q (or %q) is required", idsField, qField)
		}
	}
	if team, err = resolve(req.Team, req.TeamQ, "team", "team_q"); err != nil {
		return nil, nil, err
	}
	if departing, err = resolve(req.Departing, req.DepartingQ, "departing", "departing_q"); err != nil {
		return nil, nil, err
	}
	for _, id := range req.Candidates {
		if id < 0 || id >= g.N() {
			return nil, nil, fmt.Errorf("candidate id %d out of range [0,%d)", id, g.N())
		}
	}
	switch req.Pool {
	case "", "two_hop", "densest":
	default:
		return nil, nil, fmt.Errorf("pool %q must be \"two_hop\" or \"densest\"", req.Pool)
	}
	if (req.WeightRWR == nil) != (req.WeightOverlap == nil) {
		return nil, nil, fmt.Errorf(`give both "weight_rwr" and "weight_overlap" or neither`)
	}
	if req.TimeoutMS < 0 {
		return nil, nil, fmt.Errorf("timeout_ms %d must not be negative", req.TimeoutMS)
	}
	return team, departing, nil
}

// replaceOptionsV1 maps a resolved replace request onto the engine's
// per-call options; its timeout_ms bounds the call's ctx (requestContext).
func replaceOptionsV1(req replaceRequestV1, departing []int) []ceps.ReplaceOption {
	opts := []ceps.ReplaceOption{ceps.WithDeparting(departing...)}
	if len(req.Candidates) > 0 {
		opts = append(opts, ceps.WithCandidatePool(req.Candidates...))
	}
	if req.Pool == "densest" {
		opts = append(opts, ceps.WithDensestPool())
	}
	if req.TopN != 0 {
		opts = append(opts, ceps.WithReplaceTopN(req.TopN))
	}
	if req.MaxCandidates != 0 {
		opts = append(opts, ceps.WithMaxCandidates(req.MaxCandidates))
	}
	if req.WeightRWR != nil && req.WeightOverlap != nil {
		opts = append(opts, ceps.WithScoreWeights(*req.WeightRWR, *req.WeightOverlap))
	}
	return opts
}

// buildJSONReplaceResult renders a finished replacement ranking.
func buildJSONReplaceResult(g *ceps.Graph, res *ceps.ReplaceResult) jsonReplaceResult {
	out := jsonReplaceResult{
		Team:         res.Team,
		Departing:    res.Departing,
		Remaining:    res.Remaining,
		PoolStrategy: res.PoolStrategy,
		PoolSize:     res.PoolSize,
		Replacements: make([]jsonReplacement, len(res.Replacements)),
		SolveKernel:  res.Stages.SolveKernel,
		SolveSweeps:  res.Stages.SolveSweeps,
		CacheHits:    res.Stages.CacheHits,
		CacheMisses:  res.Stages.CacheMisses,
		ElapsedMS:    float64(res.Elapsed.Nanoseconds()) / 1e6,
		TraceID:      res.TraceID,
	}
	for i, rep := range res.Replacements {
		out.Replacements[i] = jsonReplacement{
			Node:         rep.Node,
			Label:        g.Label(rep.Node),
			Score:        rep.Score,
			RWRProximity: rep.RWRProximity,
			Overlap:      rep.Overlap,
		}
	}
	if res.Degraded != nil {
		out.Degraded = res.Degraded.Mode
	}
	return out
}

// handleReplaceV1 serves POST /v1/replace. The caller has already opened
// the request trace and stamped X-Ceps-Trace-Id.
func handleReplaceV1(eng *ceps.Engine, g *ceps.Graph, defaultTimeout time.Duration) traceHandler {
	return func(ctx context.Context, span *ceps.Span, w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", "POST")
			writeQueryError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
			return
		}
		body, status, err := readBody(w, r)
		if err != nil {
			writeQueryError(w, status, err)
			return
		}
		req, team, departing, err := decodeReplaceRequestV1(g, body)
		if err != nil {
			writeQueryError(w, http.StatusBadRequest, err)
			return
		}
		ctx, cancel := requestContext(ctx, req.TimeoutMS, defaultTimeout)
		defer cancel()
		res, err := eng.ReplaceSubteam(ctx, team, replaceOptionsV1(req, departing)...)
		if err != nil {
			span.SetError(err)
			writeQueryError(w, queryStatus(err), err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(buildJSONReplaceResult(g, res))
	}
}

// runReplace executes the `ceps replace` verb: one subteam-replacement
// query against a graph file, printed as a ranked listing or JSON.
func runReplace(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ceps replace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphPath  = fs.String("graph", "", "path to a ceps-graph text file (required)")
		teamList   = fs.String("team", "", "comma-separated team members: ids or labels (required)")
		departList = fs.String("departing", "", "comma-separated departing members: ids or labels (required)")
		candList   = fs.String("candidates", "", "comma-separated explicit candidate pool (default: derived from the graph)")
		pool       = fs.String("pool", "two_hop", "candidate-pool strategy: two_hop | densest")
		topN       = fs.Int("top", 10, "how many candidates to rank (negative = whole pool)")
		maxCand    = fs.Int("max-candidates", 0, "cap the scored pool (0 = 256, negative = unlimited)")
		wRWR       = fs.Float64("weight-rwr", 0, "blend weight of walk proximity (give both weights or neither)")
		wOverlap   = fs.Float64("weight-overlap", 0, "blend weight of structural overlap")
		timeout    = fs.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
		cacheMB    = fs.Int("cache-mb", 64, "score-cache budget in MiB (0 = disable caching)")
		workers    = fs.Int("workers", 0, "max concurrent random-walk solves (0 = GOMAXPROCS)")
		c          = fs.Float64("c", 0.5, "random-walk continuation coefficient")
		m          = fs.Int("m", 50, "random-walk iterations")
		alpha      = fs.Float64("alpha", 0.5, "degree-penalization strength")
		norm       = fs.String("norm", "penalized", "normalization: column | penalized | symmetric")
		jsonFmt    = fs.Bool("json", false, "emit the ranking as JSON")
	)
	if err := fs.Parse(argv); err != nil {
		return exitUsage
	}
	if *graphPath == "" || *teamList == "" || *departList == "" {
		fs.Usage()
		return exitUsage
	}
	if *cacheMB < 0 || *workers < 0 {
		fmt.Fprintln(stderr, "ceps: -cache-mb and -workers must be non-negative")
		return exitUsage
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	fail := func(err error) int { return failWith(err, stderr) }

	g, err := ceps.ReadGraphFile(*graphPath)
	if err != nil {
		return fail(err)
	}
	cfg := ceps.DefaultConfig()
	cfg.RWR.C = *c
	cfg.RWR.Iterations = *m
	cfg.RWR.Alpha = *alpha
	if cfg.RWR.Norm, err = rwr.ParseNorm(*norm); err != nil {
		fmt.Fprintf(stderr, "ceps: %v\n", err)
		return exitUsage
	}
	engOpts := []ceps.Option{ceps.WithConfig(cfg)}
	if *cacheMB > 0 {
		engOpts = append(engOpts, ceps.WithCache(int64(*cacheMB)<<20))
	}
	if *workers > 0 {
		engOpts = append(engOpts, ceps.WithWorkers(*workers))
	}
	eng, err := ceps.NewEngine(g, engOpts...)
	if err != nil {
		return fail(err)
	}

	team, err := parseQueries(g, *teamList)
	if err != nil {
		return fail(err)
	}
	departing, err := parseQueries(g, *departList)
	if err != nil {
		return fail(err)
	}
	opts := []ceps.ReplaceOption{ceps.WithDeparting(departing...), ceps.WithReplaceTopN(*topN)}
	if *candList != "" {
		cands, err := parseQueries(g, *candList)
		if err != nil {
			return fail(err)
		}
		opts = append(opts, ceps.WithCandidatePool(cands...))
	}
	switch *pool {
	case "two_hop":
	case "densest":
		opts = append(opts, ceps.WithDensestPool())
	default:
		fmt.Fprintf(stderr, "ceps: unknown pool strategy %q\n", *pool)
		return exitUsage
	}
	if *maxCand != 0 {
		opts = append(opts, ceps.WithMaxCandidates(*maxCand))
	}
	if *wRWR != 0 || *wOverlap != 0 {
		opts = append(opts, ceps.WithScoreWeights(*wRWR, *wOverlap))
	}

	res, err := eng.ReplaceSubteam(ctx, team, opts...)
	if err != nil {
		return fail(err)
	}
	if *jsonFmt {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(buildJSONReplaceResult(g, res)); err != nil {
			return fail(err)
		}
		return exitOK
	}
	fmt.Fprintf(stdout, "replace: team %v, departing %v, pool %s (%d candidates), response time %v\n",
		res.Team, res.Departing, res.PoolStrategy, res.PoolSize, res.Elapsed)
	for i, rep := range res.Replacements {
		fmt.Fprintf(stdout, "  %2d. %6d  %-40s score=%.4f  rwr=%.3e  overlap=%.3g\n",
			i+1, rep.Node, g.Label(rep.Node), rep.Score, rep.RWRProximity, rep.Overlap)
	}
	return exitOK
}
