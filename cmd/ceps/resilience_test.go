package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"testing"
	"time"

	"ceps"
	"ceps/internal/fault"
)

// TestQueryStatusTable pins the full error→HTTP-status mapping. The
// overload rows matter most: admission sheds wrap the deadline identities
// so library callers' errors.Is checks keep working, and the mapping must
// still classify them as 429, not 504.
func TestQueryStatusTable(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want int
	}{
		{"overload_queue_full", fault.Overload("queue_full", 2*time.Second, nil), http.StatusTooManyRequests},
		{"overload_wrapping_deadline", fault.Overload("deadline_budget", time.Second, context.DeadlineExceeded), http.StatusTooManyRequests},
		{"overload_wrapping_ceps_deadline", fault.Overload("pool_wait", 0, fmt.Errorf("%w: pool wait", ceps.ErrDeadlineExceeded)), http.StatusTooManyRequests},
		{"breaker_open", fmt.Errorf("%w: circuit breaker open", ceps.ErrUnavailable), http.StatusServiceUnavailable},
		{"bad_query", fmt.Errorf("%w: no such node", ceps.ErrBadQuery), http.StatusBadRequest},
		{"bad_config", fmt.Errorf("%w: k out of range", ceps.ErrBadConfig), http.StatusBadRequest},
		{"deadline", fmt.Errorf("%w: solve", ceps.ErrDeadlineExceeded), http.StatusGatewayTimeout},
		{"raw_deadline", context.DeadlineExceeded, http.StatusGatewayTimeout},
		{"canceled", fmt.Errorf("%w: signal", ceps.ErrCanceled), 499},
		{"raw_canceled", context.Canceled, 499},
		{"internal", errors.New("wat"), http.StatusInternalServerError},
	} {
		if got := queryStatus(tc.err); got != tc.want {
			t.Errorf("%s: queryStatus(%v) = %d, want %d", tc.name, tc.err, got, tc.want)
		}
	}
}

// TestWriteQueryErrorRetryAfter: a 429 always carries Retry-After — the
// admission controller's hint rounded up to whole seconds, or 1 when the
// error carries none — and other statuses never do.
func TestWriteQueryErrorRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status int
		err    error
		want   string // "" = header must be absent
	}{
		{"hint_rounds_up", http.StatusTooManyRequests, fault.Overload("queue_full", 1500*time.Millisecond, nil), "2"},
		{"hint_floors_at_one", http.StatusTooManyRequests, fault.Overload("codel", time.Millisecond, nil), "1"},
		{"no_hint_defaults_to_one", http.StatusTooManyRequests, errors.New("shed"), "1"},
		{"not_429_no_header", http.StatusServiceUnavailable, fault.Overload("queue_full", 5*time.Second, nil), ""},
	} {
		rec := httptest.NewRecorder()
		writeQueryError(rec, tc.status, tc.err)
		if got := rec.Header().Get("Retry-After"); got != tc.want {
			t.Errorf("%s: Retry-After = %q, want %q", tc.name, got, tc.want)
		}
		if rec.Code != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, rec.Code, tc.status)
		}
		var body queryError
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
			t.Errorf("%s: body is not a queryError: %v (%s)", tc.name, err, rec.Body.Bytes())
		}
	}
}

// TestQueryMuxPost exercises the POST /v1/query JSON path end to end: a
// valid body answers, every malformed shape is a 400 (never a 500 or a
// panic), an oversized body is 413, and unsupported methods are 405.
func TestQueryMuxPost(t *testing.T) {
	g := testGraph(t)
	eng := testEngine(t, g, ceps.WithCache(1<<20))
	srv := httptest.NewServer(newQueryMux(eng, g, ceps.DefaultConfig(), 0))
	defer srv.Close()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := post(`{"q":"Alice,Carol","budget":2,"explain":true}`)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status = %d, body: %s", resp.StatusCode, body)
	}
	var jr jsonResult
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatalf("response is not a jsonResult: %v\n%s", err, body)
	}
	if len(jr.Nodes) < 2 {
		t.Errorf("answer has %d nodes, want at least the 2 query nodes", len(jr.Nodes))
	}

	resp = post(`{"sources":[0,2],"k":1}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("POST by ids: status = %d, want 200", resp.StatusCode)
	}

	for _, tc := range []struct {
		name, body string
	}{
		{"garbage", `{`},
		{"trailing_data", `{"q":"Alice,Bob"} {"q":"Carol"}`},
		{"unknown_field", `{"q":"Alice,Bob","frogs":1}`},
		{"both_q_and_sources", `{"q":"Alice","sources":[1]}`},
		{"id_out_of_range", `{"sources":[0,99]}`},
		{"negative_id", `{"sources":[-1]}`},
		{"no_queries", `{}`},
		{"unknown_label", `{"q":"NoSuchAuthor"}`},
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
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") || !strings.Contains(allow, "POST") {
		t.Errorf("DELETE: Allow = %q, want GET and POST", allow)
	}
}

// TestQueryMuxOverloadResponse drives a resilience-enabled engine into
// saturation through the real HTTP handler and asserts the wire contract:
// shed requests get 429 with a Retry-After header and a JSON error body.
func TestQueryMuxOverloadResponse(t *testing.T) {
	g := testGraph(t)
	eng := testEngine(t, g,
		ceps.WithWorkers(1),
		ceps.WithResilience(ceps.ResilienceOptions{MaxConcurrent: 1, MaxQueue: -1}),
		ceps.WithTracing(ceps.TracingOptions{SampleRate: 1}),
	)
	srv := httptest.NewServer(newQueryMux(eng, g, ceps.DefaultConfig(), 0))
	defer srv.Close()

	// Hold the only admission slot with an injected slow solve, then hit
	// the server again: queueing is disabled, so the second request must
	// be shed with the full 429 envelope.
	inj := fault.NewInjector(fault.Injection{
		Point: fault.InjectSolveDelay,
		Delay: 300 * time.Millisecond,
	})
	restore := fault.SetActiveInjector(inj)
	defer restore()

	firstDone := make(chan error, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/v1/query?q=Alice,Carol")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		firstDone <- err
	}()

	// Wait until the slot-holder is actually admitted and inside its
	// delayed solve, so the next request deterministically finds the
	// admission slot taken.
	deadline := time.Now().Add(2 * time.Second)
	for {
		st, ok := eng.ResilienceStats()
		if !ok {
			t.Fatal("engine has no resilience layer")
		}
		if st.Running >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slot-holding request was never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(srv.URL + "/v1/query?q=Alice,Bob")
	if err != nil {
		t.Fatal(err)
	}
	dump, _ := httputil.DumpResponse(resp, false)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429:\n%s%s", resp.StatusCode, dump, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After:\n%s", dump)
	}
	// Regression: shed responses must be linkable to their trace too.
	if resp.Header.Get("X-Ceps-Trace-Id") == "" {
		t.Errorf("429 without X-Ceps-Trace-Id:\n%s", dump)
	}
	var qe queryError
	if err := json.Unmarshal(body, &qe); err != nil || qe.Error == "" {
		t.Errorf("429 body is not a queryError: %v (%s)", err, body)
	}
	if err := <-firstDone; err != nil {
		t.Fatalf("slot-holding request failed: %v", err)
	}
}

// FuzzQueryRequest drives every v1 query decoder with arbitrary bytes:
// the /v1/query body, the /v1/batch envelope (then each entry it accepts)
// and the GET parameter form (the input read as a URL query string). None
// may panic, anything one accepts must be a non-empty, in-range query set
// over the graph, and an accepted GET form holds only known parameters.
func FuzzQueryRequest(f *testing.F) {
	f.Add([]byte(`{"q":"Alice,Carol","k":1,"budget":2,"explain":true}`))
	f.Add([]byte(`{"sources":[0,1,2]}`))
	f.Add([]byte(`{"sources":[-1]}`))
	f.Add([]byte(`{"q":"Alice","sources":[0]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"q":"Alice"} trailing`))
	f.Add([]byte(`{"frogs":true}`))
	f.Add([]byte(`[`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`{"k":9223372036854775807,"q":"0"}`))
	f.Add([]byte(`{"sources":[0,2],"k":1,"budget":2,"timeout_ms":50,"no_degrade":true,"coalesce":false}`))
	f.Add([]byte(`{"sources":[-1]}`))
	f.Add([]byte(`{"sources":[0],"q":"Alice"}`))
	f.Add([]byte(`{"timeout_ms":-1,"sources":[0]}`))
	f.Add([]byte(`{"coalesce":null,"sources":[0]}`))
	f.Add([]byte(`{"queries":[{"sources":[0,2]},{"q":"Alice,Bob","k":0},{"sources":[7]},{}]}`))
	f.Add([]byte(`{"queries":[]}`))
	f.Add([]byte(`sources=0,2&k=1&budget=2&timeout_ms=50&no_degrade=1&coalesce=false&explain=1`))
	f.Add([]byte(`q=Alice,Carol&k=-1&budget=0`))
	f.Add([]byte(`q=%zz&sources=;`))
	f.Add([]byte(`{"sources":[0,2],"k":1,"budget":2,"timeout_ms":50,"explain":true}`))
	f.Add([]byte(`sources=0,2&k=1&budget=2&timeout_ms=50&explain=1`))
	f.Add([]byte(`sources=0,2&budegt=2`))

	b := ceps.NewBuilder(0)
	b.AddNode("Alice")
	b.AddNode("Bob")
	b.AddNode("Carol")
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	g, err := b.Build()
	if err != nil {
		f.Fatal(err)
	}

	// accepted checks what every decoder promises of a request it accepts.
	accepted := func(t *testing.T, form string, body []byte, req queryRequestV1, queries []int) {
		t.Helper()
		if len(queries) == 0 {
			t.Fatalf("%s accepted %q with no queries", form, body)
		}
		for _, q := range queries {
			if q < 0 || q >= g.N() {
				t.Fatalf("%s accepted out-of-range query %d from %q", form, q, body)
			}
		}
		if req.K != nil && *req.K < 0 {
			t.Fatalf("%s accepted negative k from %q", form, body)
		}
		if req.Budget != nil && *req.Budget <= 0 {
			t.Fatalf("%s accepted non-positive budget from %q", form, body)
		}
		if req.TimeoutMS < 0 {
			t.Fatalf("%s accepted negative timeout_ms from %q", form, body)
		}
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxQueryBody {
			return
		}
		// Rejects are fine; panics are not.
		if req, queries, err := decodeQueryRequestV1(g, body); err == nil {
			accepted(t, "/v1/query body", body, req, queries)
		}
		if batch, err := decodeBatchRequestV1(body); err == nil {
			if len(batch.Queries) == 0 || len(batch.Queries) > maxV1BatchSets {
				t.Fatalf("batch envelope accepted %d entries from %q", len(batch.Queries), body)
			}
			for i := range batch.Queries {
				req := batch.Queries[i]
				if queries, err := resolveQueryRequestV1(g, &req); err == nil {
					accepted(t, "/v1/batch entry", body, req, queries)
				}
			}
		}
		params, _ := url.ParseQuery(string(body))
		if req, queries, err := parseQueryParamsV1(g, params); err == nil {
			accepted(t, "/v1/query parameters", body, req, queries)
			for key := range params {
				switch key {
				case "sources", "q", "k", "budget", "timeout_ms", "explain":
				default:
					t.Fatalf("/v1/query parameters accepted unknown parameter %q from %q", key, body)
				}
			}
		}
	})
}
