package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ceps"
	"ceps/internal/obs"
)

func testEngine(t *testing.T, g *ceps.Graph, opts ...ceps.Option) *ceps.Engine {
	t.Helper()
	eng, err := ceps.NewEngine(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestQueryMux(t *testing.T) {
	g := testGraph(t)
	eng := testEngine(t, g, ceps.WithCache(1<<20))
	srv := httptest.NewServer(newQueryMux(eng, g, ceps.DefaultConfig(), 0))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/query?q=Alice,Carol&budget=2")
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

	for _, tc := range []struct {
		url  string
		want int
	}{
		{"/v1/query?q=NoSuchAuthor", http.StatusBadRequest},
		{"/v1/query", http.StatusBadRequest},
		{"/v1/query?q=Alice,Carol&k=frogs", http.StatusBadRequest},
		{"/v1/query?q=Alice,Carol&budget=frogs", http.StatusBadRequest},
	} {
		resp, err := http.Get(srv.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.url, resp.StatusCode, tc.want)
		}
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status = %d", resp.StatusCode)
	}
}

// TestServeListeners is the end-to-end serve-mode smoke test: real TCP
// listeners, a query answered over HTTP, the admin endpoint scraped and
// validated, then a clean signal-style shutdown.
func TestServeListeners(t *testing.T) {
	g := testGraph(t)
	eng := testEngine(t, g, ceps.WithCache(1<<20))

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
		done <- serveListeners(ctx, eng, g, ceps.DefaultConfig(), time.Second, defaultShutdownGrace, queryLn, adminLn, &stderr)
	}()

	resp, err := http.Get("http://" + queryLn.Addr().String() + "/v1/query?q=Alice,Bob")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d, body: %s", resp.StatusCode, body)
	}

	resp, err = http.Get("http://" + adminLn.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if _, _, err := obs.ValidateExposition(bytes.NewReader(metrics)); err != nil {
		t.Fatalf("malformed exposition: %v", err)
	}
	if !strings.Contains(string(metrics), `ceps_queries_total{path="full"} 1`) {
		t.Errorf("metrics should count the served query:\n%s", metrics)
	}

	cancel()
	select {
	case code := <-done:
		if code != exitSignal {
			t.Errorf("exit = %d, want %d (signal)", code, exitSignal)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serveListeners did not shut down")
	}
}

func TestRunServeFlagValidation(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-graph", writeGraphFile(t), "-serve", ":0", "-q", "Alice"}, &out, &errb); code != exitUsage {
		t.Errorf("-serve with -q: exit = %d, want %d", code, exitUsage)
	}
	if code := run([]string{"-graph", writeGraphFile(t), "-q", "Alice,Bob", "-slow-log", "-1s"}, &out, &errb); code != exitUsage {
		t.Errorf("negative -slow-log: exit = %d, want %d", code, exitUsage)
	}
}

// TestRunSlowLogFlag pins the -slow-log wiring: a one-shot query over the
// threshold emits a JSON entry on stderr.
func TestRunSlowLogFlag(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-graph", writeGraphFile(t), "-q", "Alice,Carol", "-slow-log", "1ns"}, &out, &errb)
	if code != exitOK {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	var entry ceps.SlowQueryEntry
	for _, line := range strings.Split(errb.String(), "\n") {
		if strings.HasPrefix(line, "{") {
			if err := json.Unmarshal([]byte(line), &entry); err != nil {
				t.Fatalf("slow-log line is not JSON: %v\n%s", err, line)
			}
			break
		}
	}
	if len(entry.Queries) != 2 || entry.ElapsedMS <= 0 {
		t.Errorf("slow-log entry missing fields: %+v (stderr: %s)", entry, errb.String())
	}
}
