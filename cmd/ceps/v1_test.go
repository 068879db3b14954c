package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"ceps"
	"ceps/internal/fault"
)

func v1TestServer(t *testing.T, opts ...ceps.Option) (*httptest.Server, *ceps.Engine) {
	t.Helper()
	g := testGraph(t)
	eng := testEngine(t, g, append([]ceps.Option{ceps.WithCache(1 << 20)}, opts...)...)
	srv := httptest.NewServer(newQueryMux(eng, g, ceps.DefaultConfig(), 0))
	t.Cleanup(srv.Close)
	return srv, eng
}

// TestV1QueryGet: the GET parameter form resolves sources/q with the
// usual overrides and answers the v1 response schema.
func TestV1QueryGet(t *testing.T) {
	srv, _ := v1TestServer(t)

	resp, err := http.Get(srv.URL + "/v1/query?sources=0,2&budget=2")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body: %s", resp.StatusCode, body)
	}
	var jr jsonResult
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatalf("response is not a jsonResult: %v\n%s", err, body)
	}
	if len(jr.Nodes) < 2 {
		t.Errorf("answer has %d nodes, want at least the 2 query nodes", len(jr.Nodes))
	}
	if jr.Budget != 2 {
		t.Errorf("budget override not reflected: got %d, want 2", jr.Budget)
	}

	for _, tc := range []struct {
		url  string
		want int
	}{
		{"/v1/query?q=Alice,Bob", http.StatusOK},
		{"/v1/query?q=NoSuchAuthor", http.StatusBadRequest},
		{"/v1/query", http.StatusBadRequest},
		{"/v1/query?sources=0&k=frogs", http.StatusBadRequest},
		{"/v1/query?sources=0&timeout_ms=-1", http.StatusBadRequest},
		{"/v1/query?sources=0&budget=0", http.StatusBadRequest},
		{"/v1/query?sources=0,2&no_degrade=1", http.StatusBadRequest},
		{"/v1/query?sources=0,2&coalesce=false", http.StatusBadRequest},
	} {
		resp, err := http.Get(srv.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.url, resp.StatusCode, tc.want)
		}
	}

	// A misspelled parameter is a 400 that names it, not a silent default.
	resp, err = http.Get(srv.URL + "/v1/query?sources=0,2&budegt=2")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "budegt") {
		t.Errorf("misspelled parameter: status = %d, body %s; want 400 naming it", resp.StatusCode, body)
	}
}

// TestV1QueryPost exercises the typed POST body: every option field is
// accepted, malformed shapes are 400 (never 500 or a panic), and the
// method/oversize contracts match the legacy endpoint.
func TestV1QueryPost(t *testing.T) {
	srv, _ := v1TestServer(t)
	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := post(`{"sources":[0,2],"k":1,"budget":2,"timeout_ms":5000,"explain":true}`)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status = %d, body: %s", resp.StatusCode, body)
	}
	var jr jsonResult
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatalf("response is not a jsonResult: %v\n%s", err, body)
	}
	if jr.Budget != 2 {
		t.Errorf("budget override not reflected: got %d, want 2", jr.Budget)
	}

	for _, tc := range []struct {
		name, body string
	}{
		{"garbage", `{`},
		{"trailing_data", `{"q":"Alice"} {"q":"Carol"}`},
		{"unknown_field", `{"q":"Alice","frogs":1}`},
		{"legacy_field_rejected", `{"queries":[0,2]}`},
		{"both_sources_and_q", `{"q":"Alice","sources":[0]}`},
		{"id_out_of_range", `{"sources":[0,99]}`},
		{"negative_id", `{"sources":[-1]}`},
		{"no_queries", `{}`},
		{"negative_k", `{"sources":[0],"k":-1}`},
		{"zero_budget", `{"sources":[0],"budget":0}`},
		{"negative_timeout", `{"sources":[0],"timeout_ms":-5}`},
		{"removed_no_degrade", `{"sources":[0],"no_degrade":true}`},
		{"removed_coalesce", `{"sources":[0],"coalesce":false}`},
	} {
		resp := post(tc.body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}

	resp = post(`{"q":"` + strings.Repeat("x", maxQueryBody+1) + `"}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status = %d, want 413", resp.StatusCode)
	}

	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/query", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE: status = %d, want 405", resp.StatusCode)
	}
}

// TestV1Batch: per-entry results come back in input order, a bad entry
// fails alone (the envelope stays 200), overlapping entries share cached
// solves, and envelope-level garbage is a client error.
func TestV1Batch(t *testing.T) {
	srv, eng := v1TestServer(t)

	resp, err := http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader(
		`{"queries":[{"q":"Alice,Carol","budget":2},{"sources":[99]},{"sources":[1,2],"k":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body: %s", resp.StatusCode, body)
	}
	var out batchResponseV1
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("response is not a batchResponseV1: %v\n%s", err, body)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
	if out.Results[0].Error != "" || out.Results[0].Result == nil {
		t.Errorf("entry 0 should answer: %+v", out.Results[0])
	}
	if out.Results[0].Result.Budget != 2 {
		t.Errorf("entry 0 budget override not reflected: %d", out.Results[0].Result.Budget)
	}
	if out.Results[1].Error == "" || out.Results[1].Result != nil {
		t.Errorf("entry 1 should fail alone: %+v", out.Results[1])
	}
	if out.Results[2].Error != "" || out.Results[2].Result == nil {
		t.Errorf("entry 2 should answer: %+v", out.Results[2])
	}
	// Input order: each answered item carries its own entry's query set.
	for i, want := range [][]int{{0, 2}, nil, {1, 2}} {
		if !slices.Equal(out.Results[i].Queries, want) {
			t.Errorf("item %d answers %v, want entry %d's set %v", i, out.Results[i].Queries, i, want)
		}
	}
	// The answered entries walk from 3 distinct sources in 4 solves: the
	// shared source 2 is solved once (a hit from the cache or joined in
	// flight).
	if st, _ := eng.CacheStats(); st.Misses != 3 || st.Hits != 1 {
		t.Errorf("cache stats %+v, want 3 misses and 1 hit", st)
	}

	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"garbage", `{`, http.StatusBadRequest},
		{"empty", `{"queries":[]}`, http.StatusBadRequest},
		{"unknown_field", `{"frogs":[]}`, http.StatusBadRequest},
		{"trailing", `{"queries":[{"q":"Alice"}]} x`, http.StatusBadRequest},
	} {
		resp, err := http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	resp, err = http.Get(srv.URL + "/v1/batch")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/batch: status = %d, want 405", resp.StatusCode)
	}
}

// TestTraceIDOnEveryPath is the regression test for the header gap: with
// tracing on, every response must carry X-Ceps-Trace-Id — including the
// 400/405/413 paths that used to be written before the span was opened.
func TestTraceIDOnEveryPath(t *testing.T) {
	srv, _ := v1TestServer(t, ceps.WithTracing(ceps.TracingOptions{SampleRate: 1}))

	do := func(name string, req *http.Request, want int) {
		t.Helper()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status = %d, want %d", name, resp.StatusCode, want)
		}
		if resp.Header.Get("X-Ceps-Trace-Id") == "" {
			t.Errorf("%s (%d): missing X-Ceps-Trace-Id", name, resp.StatusCode)
		}
	}
	get := func(path string) *http.Request {
		req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	post := func(path, body string) *http.Request {
		req, err := http.NewRequest(http.MethodPost, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	del := func(path string) *http.Request {
		req, err := http.NewRequest(http.MethodDelete, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		return req
	}

	do("v1 success", get("/v1/query?sources=0,2"), http.StatusOK)
	do("v1 bad request", get("/v1/query?q=NoSuchAuthor"), http.StatusBadRequest)
	do("v1 bad body", post("/v1/query", `{`), http.StatusBadRequest)
	do("v1 method", del("/v1/query"), http.StatusMethodNotAllowed)
	do("v1 oversize", post("/v1/query", `{"q":"`+strings.Repeat("x", maxQueryBody+1)+`"}`), http.StatusRequestEntityTooLarge)
	do("v1 batch success", post("/v1/batch", `{"queries":[{"sources":[0]}]}`), http.StatusOK)
	do("v1 batch bad", post("/v1/batch", `{`), http.StatusBadRequest)

	// The body echoes the same id for successful answers, so a client can
	// log it from either place.
	resp, err := http.Get(srv.URL + "/v1/query?sources=0,2")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	headerID := resp.Header.Get("X-Ceps-Trace-Id")
	resp.Body.Close()
	var jr jsonResult
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.TraceID == "" || jr.TraceID != headerID {
		t.Errorf("body traceId %q != header %q", jr.TraceID, headerID)
	}
}

// TestRequestContext pins the tighten-only deadline rule every v1 request
// and -queries-file line runs under: a request's timeout_ms may shorten
// the server default (-query-timeout), never lengthen or remove it.
func TestRequestContext(t *testing.T) {
	for _, tc := range []struct {
		name      string
		def       time.Duration
		timeoutMS int
		want      time.Duration // 0 = no deadline
	}{
		{"no_default/none", 0, 0, 0},
		{"no_default/50ms", 0, 50, 50 * time.Millisecond},
		{"no_default/200ms", 0, 200, 200 * time.Millisecond},
		{"100ms_default/none", 100 * time.Millisecond, 0, 100 * time.Millisecond},
		{"100ms_default/50ms", 100 * time.Millisecond, 50, 50 * time.Millisecond},
		{"100ms_default/200ms", 100 * time.Millisecond, 200, 100 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			ctx, cancel := requestContext(context.Background(), tc.timeoutMS, tc.def)
			defer cancel()
			dl, ok := ctx.Deadline()
			if tc.want == 0 {
				if ok {
					t.Fatalf("deadline %v set, want none", dl)
				}
				return
			}
			if !ok {
				t.Fatalf("no deadline, want %v", tc.want)
			}
			if got := dl.Sub(start); got < tc.want || got > tc.want+time.Second {
				t.Fatalf("deadline %v after the call, want %v", got, tc.want)
			}
		})
	}
}

// slowSolves arms an injected delay at the entry of every random-walk
// solve for the rest of the test (context-aware: a fired deadline cuts the
// pause short).
func slowSolves(t *testing.T, d time.Duration) {
	t.Helper()
	restore := fault.SetActiveInjector(fault.NewInjector(fault.Injection{Point: fault.InjectSolveDelay, Delay: d}))
	t.Cleanup(restore)
}

// TestV1Timeouts: every endpoint that accepts timeout_ms enforces it. A
// request whose deadline fires mid-solve is a 504 on /v1/query (GET and
// POST) and /v1/replace. On /v1/batch the envelope stays 200 and the
// deadline lands in the entry's item — each entry under its own deadline,
// so an entry with a generous timeout still answers beside one that ran
// out.
func TestV1Timeouts(t *testing.T) {
	srv, _ := v1TestServer(t)
	slowSolves(t, 300*time.Millisecond)
	send := func(method, path, body string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, out
	}
	for _, tc := range []struct{ name, method, path, body string }{
		{"GET /v1/query", http.MethodGet, "/v1/query?sources=0,2&timeout_ms=20", ""},
		{"POST /v1/query", http.MethodPost, "/v1/query", `{"sources":[0,2],"timeout_ms":20}`},
		{"POST /v1/replace", http.MethodPost, "/v1/replace", `{"team":[0,1],"departing":[1],"timeout_ms":20}`},
	} {
		if status, body := send(tc.method, tc.path, tc.body); status != http.StatusGatewayTimeout {
			t.Errorf("%s: status = %d, want 504; body %s", tc.name, status, body)
		}
	}

	status, body := send(http.MethodPost, "/v1/batch",
		`{"queries":[{"sources":[0,2],"timeout_ms":20},{"sources":[1,2],"timeout_ms":10000}]}`)
	if status != http.StatusOK {
		t.Fatalf("batch: status = %d, want 200; body %s", status, body)
	}
	var out batchResponseV1
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 || !strings.Contains(out.Results[0].Error, "deadline") {
		t.Fatalf("batch entry 0 should fail on its own deadline: %s", body)
	}
	if out.Results[1].Error != "" || out.Results[1].Result == nil {
		t.Fatalf("batch entry 1 should answer under its own, longer deadline: %s", body)
	}
}

// TestV1BatchCancel: cancelling the ctx a batch runs under cancels every
// entry of it, in the one executor /v1/batch and -queries-file share.
func TestV1BatchCancel(t *testing.T) {
	g := testGraph(t)
	eng := testEngine(t, g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := []queryRequestV1{{Sources: []int{0, 2}}, {Sources: []int{1, 2}, TimeoutMS: 5000}}
	for i, item := range execBatchV1(ctx, eng, g, ceps.DefaultConfig(), reqs, time.Minute) {
		if !errors.Is(item.err, ceps.ErrCanceled) || item.Result != nil {
			t.Errorf("entry %d: err = %v, want ErrCanceled", i, item.err)
		}
	}
}
