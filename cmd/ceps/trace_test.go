package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"ceps"
	"ceps/internal/obs"
)

// smokeDataset builds a graph big enough for fast mode to carve real
// partitions (the 3-node testGraph is too small for a 4-span waterfall).
func smokeDataset(t *testing.T) *ceps.Dataset {
	t.Helper()
	cfg := ceps.ScaleDBLP(ceps.DefaultDBLPConfig(), 0.1)
	cfg.Seed = 42
	ds, err := ceps.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestTraceSmoke is the end-to-end acceptance check for tracing: serve a
// fast-mode engine with -trace-sample 1.0 semantics, answer one query over
// HTTP, follow its X-Ceps-Trace-Id to /debug/traces, and assert the span
// tree has the four pipeline children with consistent sweep events.
func TestTraceSmoke(t *testing.T) {
	ds := smokeDataset(t)
	cfg := ceps.DefaultConfig()
	cfg.RWR.Iterations = 25
	cfg.Budget = 10
	eng := testEngine(t, ds.Graph, ceps.WithConfig(cfg),
		ceps.WithTracing(ceps.TracingOptions{SampleRate: 1}))
	pt, err := ceps.PrePartition(context.Background(), ds.Graph, 6, ceps.PartitionOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetPartitioned(pt)

	queryLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	adminLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- serveListeners(ctx, eng, ds.Graph, cfg, time.Minute, defaultShutdownGrace, queryLn, adminLn, &stderr)
	}()

	queryURL := fmt.Sprintf("http://%s/v1/query?q=%d,%d",
		queryLn.Addr(), ds.Repository[0][0], ds.Repository[0][1])
	resp, err := http.Get(queryURL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d, body: %s", resp.StatusCode, body)
	}
	traceID := resp.Header.Get("X-Ceps-Trace-Id")
	if traceID == "" {
		t.Fatal("response carries no X-Ceps-Trace-Id header")
	}

	admin := "http://" + adminLn.Addr().String()
	resp, err = http.Get(admin + "/debug/traces?id=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/debug/traces Content-Type = %q", ct)
	}
	var tr obs.Trace
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tr.TraceID != traceID {
		t.Fatalf("fetched trace %q, asked for %q", tr.TraceID, traceID)
	}

	spans := map[string]obs.SpanData{}
	for _, s := range tr.Spans {
		spans[s.Name] = s
	}
	for _, want := range []string{"http_query", "query", "partition", "solve", "combine", "extract"} {
		if _, ok := spans[want]; !ok {
			t.Errorf("trace missing %s span (have %v)", want, spanNames(tr))
		}
	}
	if root := spans["http_query"]; root.ParentID != 0 {
		t.Errorf("http_query is not the root span")
	}
	if q := spans["query"]; q.ParentID != spans["http_query"].SpanID {
		t.Errorf("query span is not a child of http_query")
	}

	// Attribute values arrive as JSON numbers (float64); the sum of the
	// sweep events' advanced counts must equal the solve span's sweeps.
	solve := spans["solve"]
	wantSweeps, _ := solve.Attrs["sweeps"].(float64)
	if wantSweeps <= 0 {
		t.Fatalf("solve span has no sweeps attr: %v", solve.Attrs)
	}
	advanced := 0.0
	for _, ev := range solve.Events {
		if ev.Name != "sweep" {
			continue
		}
		n, ok := ev.Attrs["advanced"].(float64)
		if !ok {
			t.Fatalf("sweep event without advanced attr: %v", ev.Attrs)
		}
		advanced += n
	}
	if advanced != wantSweeps {
		t.Errorf("sweep events advanced %v columns, solve span says %v sweeps", advanced, wantSweeps)
	}

	resp, err = http.Get(admin + "/debug/traces/view?id=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(page), traceID) {
		t.Errorf("waterfall view status %d, mentions trace: %v", resp.StatusCode, strings.Contains(string(page), traceID))
	}

	resp, err = http.Get(admin + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if _, _, err := obs.ValidateExposition(bytes.NewReader(metrics)); err != nil {
		t.Fatalf("malformed exposition: %v", err)
	}
	for _, series := range []string{"ceps_traces_sampled_total 1", "ceps_traces_dropped_total", "go_goroutines"} {
		if !strings.Contains(string(metrics), series) {
			t.Errorf("metrics missing %s", series)
		}
	}

	cancel()
	select {
	case code := <-done:
		if code != exitSignal {
			t.Errorf("serve exit = %d, want %d", code, exitSignal)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down")
	}
}

func spanNames(tr obs.Trace) []string {
	names := make([]string, 0, len(tr.Spans))
	for _, s := range tr.Spans {
		names = append(names, s.Name)
	}
	return names
}

// TestTraceFlagValidation pins the usage errors for the tracing flags.
func TestTraceFlagValidation(t *testing.T) {
	graph := writeGraphFile(t)
	for _, args := range [][]string{
		{"-graph", graph, "-q", "Alice", "-trace-sample", "1.5"},
		{"-graph", graph, "-q", "Alice", "-trace-sample", "-0.1"},
		{"-graph", graph, "-q", "Alice", "-trace-buffer", "-4"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != exitUsage {
			t.Errorf("run(%v) = %d, want %d (stderr: %s)", args, code, exitUsage, errb.String())
		}
	}
	// A valid rate runs the one-shot query with tracing enabled.
	var out, errb bytes.Buffer
	if code := run([]string{"-graph", graph, "-q", "Alice,Carol", "-trace-sample", "1", "-b", "2"}, &out, &errb); code != exitOK {
		t.Fatalf("traced one-shot query exit = %d, stderr: %s", code, errb.String())
	}
}
