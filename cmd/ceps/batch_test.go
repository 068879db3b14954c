package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func writeBatchFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "queries.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadQueryRequests(t *testing.T) {
	g := testGraph(t)
	path := writeBatchFile(t, `
# comment line
Alice,Carol
0, 2   # trailing comment
Bob,Alice
`)
	reqs, err := readQueryRequests(g, path)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 2}, {0, 2}, {1, 0}}
	if len(reqs) != len(want) {
		t.Fatalf("got %d sets, want %d", len(reqs), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if reqs[i].Sources[j] != want[i][j] {
				t.Fatalf("set %d = %v, want %v", i, reqs[i].Sources, want[i])
			}
		}
	}
}

// TestReadQueryRequestsJSONLines: v1 JSON-object lines mix with legacy
// comma lines and carry per-request overrides.
func TestReadQueryRequestsJSONLines(t *testing.T) {
	g := testGraph(t)
	path := writeBatchFile(t, `
Alice,Carol
{"sources":[1,0],"k":1,"timeout_ms":50}
{"q":"Bob,Carol","budget":3}
`)
	reqs, err := readQueryRequests(g, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 3 {
		t.Fatalf("got %d requests, want 3", len(reqs))
	}
	r := reqs[1]
	if len(r.Sources) != 2 || r.Sources[0] != 1 || r.K == nil || *r.K != 1 ||
		r.TimeoutMS != 50 {
		t.Fatalf("JSON line parsed as %+v", r)
	}
	r = reqs[2]
	if r.Q != "Bob,Carol" || r.Budget == nil || *r.Budget != 3 {
		t.Fatalf("JSON line parsed as %+v", r)
	}
}

func TestReadQueryRequestsErrors(t *testing.T) {
	g := testGraph(t)
	if _, err := readQueryRequests(g, writeBatchFile(t, "# only comments\n")); err == nil {
		t.Error("empty batch should fail")
	}
	if _, err := readQueryRequests(g, writeBatchFile(t, "NoSuchAuthor\n")); err == nil {
		t.Error("unknown label should fail")
	}
	if _, err := readQueryRequests(g, writeBatchFile(t, `{"sources":[99]}`+"\n")); err == nil {
		t.Error("out-of-range JSON line should fail")
	}
	if _, err := readQueryRequests(g, writeBatchFile(t, `{"sources":[0],`+"\n")); err == nil {
		t.Error("malformed JSON line should fail")
	}
	for _, field := range []string{`"no_degrade":true`, `"coalesce":false`} {
		if _, err := readQueryRequests(g, writeBatchFile(t, `{"sources":[0],`+field+"}\n")); err == nil {
			t.Errorf("a line naming the removed field %s should fail", field)
		}
	}
	if _, err := readQueryRequests(g, filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestRunBatchText(t *testing.T) {
	var out, errb bytes.Buffer
	batch := writeBatchFile(t, "Alice,Carol\nBob,Carol\n")
	code := run([]string{"-graph", writeGraphFile(t), "-queries-file", batch, "-b", "2"}, &out, &errb)
	if code != exitOK {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "--- set 1") || !strings.Contains(out.String(), "--- set 2") {
		t.Errorf("missing per-set output: %s", out.String())
	}
	if !strings.Contains(errb.String(), "cache:") {
		t.Errorf("cache stats should go to stderr: %s", errb.String())
	}
}

func TestRunBatchJSON(t *testing.T) {
	var out, errb bytes.Buffer
	batch := writeBatchFile(t, "Alice,Carol\nAlice,Carol\n")
	code := run([]string{"-graph", writeGraphFile(t), "-queries-file", batch, "-b", "2", "-json"}, &out, &errb)
	if code != exitOK {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	var items []batchItemV1
	if err := json.Unmarshal(out.Bytes(), &items); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if len(items) != 2 {
		t.Fatalf("got %d items, want 2", len(items))
	}
	for i, item := range items {
		if item.Error != "" || item.Result == nil {
			t.Fatalf("item %d: error %q", i, item.Error)
		}
		if len(item.Result.Nodes) == 0 {
			t.Fatalf("item %d: empty result", i)
		}
	}
	// The repeat set must be served from cache: each of its two sources
	// is solved once.
	if !strings.Contains(errb.String(), "cache: 2 hits, 2 misses") {
		t.Errorf("expected the repeat set's sources as cache hits on stderr: %s", errb.String())
	}
}

// TestRunBatchNoCache: -cache-mb 0 turns caching off and the stats line
// disappears.
func TestRunBatchNoCache(t *testing.T) {
	var out, errb bytes.Buffer
	batch := writeBatchFile(t, "Alice,Carol\n")
	code := run([]string{"-graph", writeGraphFile(t), "-queries-file", batch, "-cache-mb", "0"}, &out, &errb)
	if code != exitOK {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	if strings.Contains(errb.String(), "cache:") {
		t.Errorf("no cache stats expected with -cache-mb 0: %s", errb.String())
	}
}

// TestRunBatchItemErrorExitCode: a failing set yields exitError but the
// healthy sets still print.
func TestRunBatchItemErrorExitCode(t *testing.T) {
	var out, errb bytes.Buffer
	// Per-set timeout impossible to meet with a huge iteration budget.
	batch := writeBatchFile(t, "Alice,Carol\n")
	code := run([]string{"-graph", writeGraphFile(t), "-queries-file", batch,
		"-m", "1000000", "-query-timeout", "1ns"}, &out, &errb)
	if code != exitError {
		t.Fatalf("exit = %d, want %d; out: %s", code, exitError, out.String())
	}
	if !strings.Contains(out.String(), "error:") {
		t.Errorf("per-set error should print inline: %s", out.String())
	}
}

// TestRunBatchOuterDeadline: the whole run hitting -timeout maps to the
// deadline exit code, as in single-query mode.
func TestRunBatchOuterDeadline(t *testing.T) {
	var out, errb bytes.Buffer
	batch := writeBatchFile(t, "Alice,Carol\n")
	code := run([]string{"-graph", writeGraphFile(t), "-queries-file", batch,
		"-m", "1000000", "-timeout", "1ns"}, &out, &errb)
	if code != exitDeadline {
		t.Fatalf("exit = %d, want %d; stderr: %s", code, exitDeadline, errb.String())
	}
}

// TestRunUsageBothQueryModes: -q and -queries-file are mutually exclusive.
func TestRunUsageBothQueryModes(t *testing.T) {
	var out, errb bytes.Buffer
	batch := writeBatchFile(t, "Alice\n")
	code := run([]string{"-graph", writeGraphFile(t), "-q", "Alice", "-queries-file", batch}, &out, &errb)
	if code != exitUsage {
		t.Fatalf("exit = %d, want %d", code, exitUsage)
	}
}

// TestReadQueryRequestsLongLine pins the scanner buffer fix: a query
// line longer than bufio.Scanner's 64 KiB default token limit must
// parse, not fail the whole batch with ErrTooLong.
func TestReadQueryRequestsLongLine(t *testing.T) {
	g := testGraph(t)
	var sb strings.Builder
	for sb.Len() < 100<<10 {
		sb.WriteString("Alice,Bob,Carol,")
	}
	sb.WriteString("Alice\n")
	reqs, err := readQueryRequests(g, writeBatchFile(t, sb.String()))
	if err != nil {
		t.Fatalf("long line should parse, got: %v", err)
	}
	if len(reqs) != 1 {
		t.Fatalf("got %d sets, want 1", len(reqs))
	}
	if want := 3*(sb.Len()/16) + 1; len(reqs[0].Sources) < 64<<10/16 {
		t.Fatalf("set has %d members, want about %d", len(reqs[0].Sources), want)
	}
}

// TestRunBatchSetErrorIsolated: a set that fails at execution (a
// duplicated node passes the file's range check, not the pipeline's)
// reports its error inline while the other sets still answer.
func TestRunBatchSetErrorIsolated(t *testing.T) {
	var out, errb bytes.Buffer
	batch := writeBatchFile(t, "Alice,Carol\n{\"sources\":[0,0]}\nBob,Carol\n")
	code := run([]string{"-graph", writeGraphFile(t), "-queries-file", batch, "-b", "2", "-json"}, &out, &errb)
	if code != exitError {
		t.Fatalf("exit = %d, want %d; stderr: %s", code, exitError, errb.String())
	}
	var items []batchItemV1
	if err := json.Unmarshal(out.Bytes(), &items); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if len(items) != 3 || items[1].Error == "" || items[1].Result != nil {
		t.Fatalf("set 2 should fail alone: %s", out.String())
	}
	for _, i := range []int{0, 2} {
		if items[i].Error != "" || items[i].Result == nil {
			t.Errorf("set %d should answer beside the failed one: %+v", i+1, items[i])
		}
	}
}

// TestRunBatchPerSetDeadline: each -queries-file line runs under its own
// deadline — -query-timeout, shortened by the line's timeout_ms — so the
// line that runs out fails alone and the others answer.
func TestRunBatchPerSetDeadline(t *testing.T) {
	slowSolves(t, 300*time.Millisecond)
	var out, errb bytes.Buffer
	batch := writeBatchFile(t, "{\"sources\":[0,2],\"timeout_ms\":20}\nBob,Carol\n")
	code := run([]string{"-graph", writeGraphFile(t), "-queries-file", batch, "-b", "2",
		"-query-timeout", "10s", "-json"}, &out, &errb)
	if code != exitError {
		t.Fatalf("exit = %d, want %d; stderr: %s", code, exitError, errb.String())
	}
	var items []batchItemV1
	if err := json.Unmarshal(out.Bytes(), &items); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if len(items) != 2 || !strings.Contains(items[0].Error, "deadline") {
		t.Fatalf("set 1 should fail on its own deadline: %s", out.String())
	}
	if items[1].Error != "" || items[1].Result == nil {
		t.Fatalf("set 2 should answer under the longer default deadline: %s", out.String())
	}
}
