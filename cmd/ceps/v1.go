package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"ceps"
)

// This file is the versioned query API: one typed QueryRequest schema
// shared by POST /v1/query, POST /v1/batch, the GET parameter form, and
// the CLI -queries-file format (JSON-object lines). k and budget map onto
// the engine's QueryOption surface, timeout_ms onto the call's ctx:
//
//	{
//	  "sources": [1, 2],          // node ids — or "q": "Alice,Bob" (ids or labels)
//	  "k": 2,                     // optional K_softAND override (0 = AND)
//	  "budget": 20,               // optional output budget override
//	  "timeout_ms": 250,          // optional per-request deadline (caps the server default)
//	  "explain": true             // include per-node why-lines
//	}
//
// Degrading and coalescing are settings of the server (-no-degrade,
// -coalesce), not of a request; a body or GET form that names any other
// field is a 400.

// queryRequestV1 is the v1 query schema. Exactly one of Sources (node
// ids) and Q (comma-separated ids or labels, as with -q) must be set.
type queryRequestV1 struct {
	Sources   []int  `json:"sources,omitempty"`
	Q         string `json:"q,omitempty"`
	K         *int   `json:"k,omitempty"`
	Budget    *int   `json:"budget,omitempty"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
	Explain   bool   `json:"explain,omitempty"`
}

// batchRequestV1 is the POST /v1/batch body: an array of v1 query
// requests executed as concurrent Do calls.
type batchRequestV1 struct {
	Queries []queryRequestV1 `json:"queries"`
}

// batchItemV1 is one entry of a /v1/batch response; exactly one of Error
// and Result is set, in input order.
type batchItemV1 struct {
	Queries []int       `json:"queries,omitempty"`
	Error   string      `json:"error,omitempty"`
	Result  *jsonResult `json:"result,omitempty"`

	// err retains the typed error for the CLI's exit-code classification
	// (deadline vs plain failure); it never serializes.
	err error
}

type batchResponseV1 struct {
	Results []batchItemV1 `json:"results"`
}

// maxV1BatchSets bounds one /v1/batch request. The body size cap already
// bounds bytes; this bounds fan-out.
const maxV1BatchSets = 1024

// decodeQueryRequestV1 parses one v1 request body against the graph. It
// is a pure function over its inputs so FuzzQueryRequest can drive it
// with arbitrary bodies; every failure is a client error (HTTP 400),
// never a panic.
func decodeQueryRequestV1(g *ceps.Graph, body []byte) (req queryRequestV1, queries []int, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, nil, fmt.Errorf("bad request body: %w", err)
	}
	if dec.More() {
		return req, nil, fmt.Errorf("bad request body: trailing data after JSON object")
	}
	queries, err = resolveQueryRequestV1(g, &req)
	return req, queries, err
}

// decodeBatchRequestV1 parses a POST /v1/batch body; per-entry failures
// are deferred to execution (they land in the entry's result item), but a
// malformed envelope fails the whole request.
func decodeBatchRequestV1(body []byte) (batchRequestV1, error) {
	var req batchRequestV1
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("bad request body: %w", err)
	}
	if dec.More() {
		return req, fmt.Errorf("bad request body: trailing data after JSON object")
	}
	if len(req.Queries) == 0 {
		return req, fmt.Errorf(`bad request body: "queries" must be a non-empty array`)
	}
	if len(req.Queries) > maxV1BatchSets {
		return req, fmt.Errorf("bad request body: %d query sets exceed the per-request limit of %d", len(req.Queries), maxV1BatchSets)
	}
	return req, nil
}

// resolveQueryRequestV1 validates a decoded v1 request and resolves its
// query node set.
func resolveQueryRequestV1(g *ceps.Graph, req *queryRequestV1) (queries []int, err error) {
	switch {
	case req.Q != "" && len(req.Sources) > 0:
		return nil, fmt.Errorf(`set "sources" or "q", not both`)
	case len(req.Sources) > 0:
		for _, id := range req.Sources {
			if id < 0 || id >= g.N() {
				return nil, fmt.Errorf("source id %d out of range [0,%d)", id, g.N())
			}
		}
		queries = req.Sources
	default:
		queries, err = parseQueries(g, req.Q)
		if err != nil {
			return nil, err
		}
	}
	if req.K != nil && *req.K < 0 {
		return nil, fmt.Errorf("k %d must not be negative", *req.K)
	}
	if req.Budget != nil && *req.Budget <= 0 {
		return nil, fmt.Errorf("budget %d must be positive", *req.Budget)
	}
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeout_ms %d must not be negative", req.TimeoutMS)
	}
	return queries, nil
}

// queryParamsV1 are the GET /v1/query URL parameters: the POST body's
// fields, with sources taking the comma syntax of q.
var queryParamsV1 = map[string]bool{
	"sources": true, "q": true, "k": true, "budget": true, "timeout_ms": true, "explain": true,
}

// parseQueryParamsV1 builds a v1 request from GET /v1/query URL
// parameters (queryParamsV1) and resolves it against the graph. Like the
// POST body's DisallowUnknownFields, an unknown parameter is an error, so
// a misspelled one cannot silently fall back to the default.
func parseQueryParamsV1(g *ceps.Graph, params map[string][]string) (req queryRequestV1, queries []int, err error) {
	for key := range params {
		if !queryParamsV1[key] {
			return req, nil, fmt.Errorf("unknown parameter %q", key)
		}
	}
	get := func(key string) string {
		if vs := params[key]; len(vs) > 0 {
			return vs[0]
		}
		return ""
	}
	atoi := func(key string) (*int, error) {
		v := get(key)
		if v == "" {
			return nil, nil
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("bad %s %q: %w", key, v, err)
		}
		return &n, nil
	}
	if v := get("sources"); v != "" {
		req.Q = v // same comma syntax; ids and labels both resolve
	} else {
		req.Q = get("q")
	}
	if req.K, err = atoi("k"); err != nil {
		return req, nil, err
	}
	if req.Budget, err = atoi("budget"); err != nil {
		return req, nil, err
	}
	if t, err := atoi("timeout_ms"); err != nil {
		return req, nil, err
	} else if t != nil {
		req.TimeoutMS = *t
	}
	req.Explain = get("explain") != ""
	queries, err = resolveQueryRequestV1(g, &req)
	return req, queries, err
}

// displayConfigV1 folds a request's overrides into the engine's base
// config for rendering (queryType, budget fields of the JSON result).
// The engine itself is never mutated; Do applies the same overrides via
// options.
func displayConfigV1(base ceps.Config, req queryRequestV1) ceps.Config {
	if req.K != nil {
		base.K = *req.K
	}
	if req.Budget != nil {
		base.Budget = *req.Budget
	}
	return base
}

// requestContext bounds one v1 request by its deadline: the server-wide
// default (-query-timeout), tightened by the request's timeout_ms. A
// request may only shorten the default, so one client cannot opt out of
// the operator's deadline policy. Zero on both sides means no deadline
// beyond ctx's own. The caller must call the returned cancel.
func requestContext(ctx context.Context, timeoutMS int, defaultTimeout time.Duration) (context.Context, context.CancelFunc) {
	timeout := defaultTimeout
	if d := time.Duration(timeoutMS) * time.Millisecond; d > 0 && (timeout <= 0 || d < timeout) {
		timeout = d
	}
	if timeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, timeout)
}

// execRequestV1 answers one resolved v1 request through the unified Do
// surface under its requestContext deadline. It is shared by /v1/query,
// /v1/batch, and the CLI batch mode.
func execRequestV1(ctx context.Context, eng *ceps.Engine, queries []int, req queryRequestV1, defaultTimeout time.Duration) (*ceps.Result, error) {
	ctx, cancel := requestContext(ctx, req.TimeoutMS, defaultTimeout)
	defer cancel()
	var opts []ceps.QueryOption
	if req.K != nil {
		opts = append(opts, ceps.WithK(*req.K))
	}
	if req.Budget != nil {
		opts = append(opts, ceps.WithQueryBudget(*req.Budget))
	}
	return eng.Do(ctx, queries, opts...)
}

// readBody drains a bounded request body, classifying oversize as 413.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, int, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxQueryBody))
	if err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		return nil, status, fmt.Errorf("reading request body: %w", err)
	}
	return body, http.StatusOK, nil
}

// handleQueryV1 serves GET and POST /v1/query. The caller has already
// opened the request trace and stamped X-Ceps-Trace-Id.
func handleQueryV1(eng *ceps.Engine, g *ceps.Graph, cfg ceps.Config, defaultTimeout time.Duration) traceHandler {
	return func(ctx context.Context, span *ceps.Span, w http.ResponseWriter, r *http.Request) {
		var (
			req     queryRequestV1
			queries []int
			err     error
		)
		switch r.Method {
		case http.MethodGet:
			req, queries, err = parseQueryParamsV1(g, r.URL.Query())
		case http.MethodPost:
			var body []byte
			var status int
			body, status, err = readBody(w, r)
			if err != nil {
				writeQueryError(w, status, err)
				return
			}
			req, queries, err = decodeQueryRequestV1(g, body)
		default:
			w.Header().Set("Allow", "GET, POST")
			writeQueryError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
			return
		}
		if err != nil {
			writeQueryError(w, http.StatusBadRequest, err)
			return
		}
		res, err := execRequestV1(ctx, eng, queries, req, defaultTimeout)
		if err != nil {
			span.SetError(err)
			writeQueryError(w, queryStatus(err), err)
			return
		}
		writeQueryResult(w, g, res, queries, displayConfigV1(cfg, req), req.Explain)
	}
}

// handleBatchV1 serves POST /v1/batch: every entry of the array runs
// concurrently (bounded fan-out; solves are additionally bounded by the
// engine's pool), and per-entry failures land in the entry's item without
// failing the batch — the HTTP status describes the envelope only.
func handleBatchV1(eng *ceps.Engine, g *ceps.Graph, cfg ceps.Config, defaultTimeout time.Duration) traceHandler {
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
		batch, err := decodeBatchRequestV1(body)
		if err != nil {
			writeQueryError(w, http.StatusBadRequest, err)
			return
		}
		out := batchResponseV1{Results: execBatchV1(ctx, eng, g, cfg, batch.Queries, defaultTimeout)}
		for _, item := range out.Results {
			if item.Error != "" {
				span.SetError(errors.New(item.Error))
				break
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	}
}

// execBatchV1 is the one batch executor: it runs a slice of v1 requests
// as concurrent Do calls with bounded fan-out and returns items in input
// order. Each entry gets its own requestContext deadline, and an entry's
// failure lands in its item without touching the others; cancelling ctx
// cancels every entry. Shared by POST /v1/batch and the CLI -queries-file
// batch mode (which is why it does not touch HTTP types).
func execBatchV1(ctx context.Context, eng *ceps.Engine, g *ceps.Graph, cfg ceps.Config, reqs []queryRequestV1, defaultTimeout time.Duration) []batchItemV1 {
	items := make([]batchItemV1, len(reqs))
	conc := runtime.GOMAXPROCS(0)
	if conc > len(reqs) {
		conc = len(reqs)
	}
	if conc < 1 {
		conc = 1
	}
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			req := reqs[i]
			queries, err := resolveQueryRequestV1(g, &req)
			if err != nil {
				items[i].Error, items[i].err = err.Error(), err
				return
			}
			items[i].Queries = queries
			res, err := execRequestV1(ctx, eng, queries, req, defaultTimeout)
			if err != nil {
				items[i].Error, items[i].err = err.Error(), err
				return
			}
			jr := buildJSONResult(g, res, queries, displayConfigV1(cfg, req), req.Explain)
			jr.TraceID = res.TraceID
			items[i].Result = &jr
		}(i)
	}
	wg.Wait()
	return items
}

// writeQueryResult encodes one successful answer, stamping the trace id
// into the body alongside the X-Ceps-Trace-Id header.
func writeQueryResult(w http.ResponseWriter, g *ceps.Graph, res *ceps.Result, queries []int, cfg ceps.Config, explain bool) {
	w.Header().Set("Content-Type", "application/json")
	jr := buildJSONResult(g, res, queries, cfg, explain)
	jr.TraceID = res.TraceID
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(jr)
}
