package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestDecodeReplaceRequestV1 pins the pure decoder: every malformed shape
// is a client error (never a panic), and the resolved team/departing sets
// come back for well-formed bodies.
func TestDecodeReplaceRequestV1(t *testing.T) {
	g := testGraph(t)

	req, team, departing, err := decodeReplaceRequestV1(g,
		[]byte(`{"team_q":"Alice,Bob","departing_q":"Bob","pool":"densest","top_n":3}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(team) != 2 || team[0] != 0 || team[1] != 1 {
		t.Errorf("team = %v, want [0 1]", team)
	}
	if len(departing) != 1 || departing[0] != 1 {
		t.Errorf("departing = %v, want [1]", departing)
	}
	if req.Pool != "densest" || req.TopN != 3 {
		t.Errorf("decoded fields lost: %+v", req)
	}

	for _, tc := range []struct {
		name, body string
	}{
		{"garbage", `{`},
		{"trailing_data", `{"team":[0],"departing":[0]} {}`},
		{"unknown_field", `{"team":[0,1],"departing":[1],"frogs":1}`},
		{"no_team", `{"departing":[1]}`},
		{"no_departing", `{"team":[0,1]}`},
		{"both_team_forms", `{"team":[0,1],"team_q":"Alice","departing":[1]}`},
		{"both_departing_forms", `{"team":[0,1],"departing":[1],"departing_q":"Bob"}`},
		{"team_out_of_range", `{"team":[0,99],"departing":[0]}`},
		{"unknown_label", `{"team_q":"NoSuchAuthor","departing":[0]}`},
		{"candidate_out_of_range", `{"team":[0,1],"departing":[1],"candidates":[99]}`},
		{"bad_pool", `{"team":[0,1],"departing":[1],"pool":"sparsest"}`},
		{"one_sided_weights", `{"team":[0,1],"departing":[1],"weight_rwr":0.5}`},
		{"negative_timeout", `{"team":[0,1],"departing":[1],"timeout_ms":-1}`},
		{"removed_no_degrade", `{"team":[0,1],"departing":[1],"no_degrade":true}`},
		{"removed_coalesce", `{"team":[0,1],"departing":[1],"coalesce":false}`},
	} {
		if _, _, _, err := decodeReplaceRequestV1(g, []byte(tc.body)); err == nil {
			t.Errorf("%s: decode accepted %s", tc.name, tc.body)
		}
	}
}

// FuzzReplaceRequest drives decodeReplaceRequestV1 with arbitrary bodies:
// it must never panic, and any body it accepts must resolve to in-range
// node ids, a known pool strategy, a non-negative timeout, and either both
// blend weights or neither.
func FuzzReplaceRequest(f *testing.F) {
	for _, body := range []string{
		`{"team_q":"Alice,Bob","departing_q":"Bob","pool":"densest","top_n":3}`,
		`{`,
		`{"team":[0],"departing":[0]} {}`,
		`{"team":[0,1],"departing":[1],"frogs":1}`,
		`{"departing":[1]}`,
		`{"team":[0,1]}`,
		`{"team":[0,1],"team_q":"Alice","departing":[1]}`,
		`{"team":[0,1],"departing":[1],"departing_q":"Bob"}`,
		`{"team":[0,99],"departing":[0]}`,
		`{"team_q":"NoSuchAuthor","departing":[0]}`,
		`{"team":[0,1],"departing":[1],"candidates":[99]}`,
		`{"team":[0,1],"departing":[1],"pool":"sparsest"}`,
		`{"team":[0,1],"departing":[1],"weight_rwr":0.5}`,
		`{"team":[0,1],"departing":[1],"timeout_ms":-1}`,
	} {
		f.Add([]byte(body))
	}
	g := testGraph(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxQueryBody {
			return
		}
		req, team, departing, err := decodeReplaceRequestV1(g, body)
		if err != nil {
			return
		}
		for _, ids := range [][]int{team, departing, req.Candidates} {
			for _, id := range ids {
				if id < 0 || id >= g.N() {
					t.Fatalf("accepted body %q with node id %d outside [0,%d)", body, id, g.N())
				}
			}
		}
		switch req.Pool {
		case "", "two_hop", "densest":
		default:
			t.Fatalf("accepted body %q with pool %q", body, req.Pool)
		}
		if req.TimeoutMS < 0 {
			t.Fatalf("accepted body %q with timeout_ms %d", body, req.TimeoutMS)
		}
		if (req.WeightRWR == nil) != (req.WeightOverlap == nil) {
			t.Fatalf("accepted body %q with only one blend weight", body)
		}
	})
}

// TestV1Replace: POST /v1/replace answers the documented schema, malformed
// bodies are 400, wrong methods 405 — the same contracts as /v1/query.
func TestV1Replace(t *testing.T) {
	srv, _ := v1TestServer(t)

	resp, err := http.Post(srv.URL+"/v1/replace", "application/json",
		strings.NewReader(`{"team_q":"Alice,Bob","departing_q":"Bob","top_n":-1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body: %s", resp.StatusCode, body)
	}
	var jr jsonReplaceResult
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatalf("response is not a jsonReplaceResult: %v\n%s", err, body)
	}
	if jr.PoolStrategy != "two_hop" {
		t.Errorf("pool_strategy = %q, want two_hop", jr.PoolStrategy)
	}
	// On the Alice—Bob—Carol path graph, departing Bob from {Alice, Bob}
	// leaves Carol as the only candidate.
	if len(jr.Replacements) != 1 || jr.Replacements[0].Node != 2 || jr.Replacements[0].Label != "Carol" {
		t.Fatalf("replacements = %+v, want exactly Carol (node 2)", jr.Replacements)
	}
	if jr.Replacements[0].Score <= 0 || jr.Replacements[0].Score > 1 {
		t.Errorf("score %v outside (0,1]", jr.Replacements[0].Score)
	}

	for _, tc := range []struct {
		name, body string
	}{
		{"garbage", `{`},
		{"unknown_field", `{"team":[0,1],"departing":[1],"frogs":1}`},
		{"no_departing", `{"team":[0,1]}`},
		{"departing_off_team", `{"team":[0,1],"departing":[2]}`},
		{"everyone_departs", `{"team":[0,1],"departing":[0,1]}`},
	} {
		resp, err := http.Post(srv.URL+"/v1/replace", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}

	resp, err = http.Get(srv.URL + "/v1/replace")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/replace: status = %d, want 405", resp.StatusCode)
	}
}

// TestRunReplaceVerb drives the `ceps replace` CLI verb end to end on a
// graph file: listing output, JSON output, and usage errors.
func TestRunReplaceVerb(t *testing.T) {
	path := writeGraphFile(t)

	var out, errb bytes.Buffer
	code := run([]string{"replace", "-graph", path, "-team", "Alice,Bob", "-departing", "Bob"}, &out, &errb)
	if code != exitOK {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	text := out.String()
	if !strings.Contains(text, "pool two_hop") || !strings.Contains(text, "Carol") {
		t.Errorf("listing output missing pool/candidate:\n%s", text)
	}

	out.Reset()
	errb.Reset()
	code = run([]string{"replace", "-graph", path, "-team", "Alice,Bob", "-departing", "Bob", "-json"}, &out, &errb)
	if code != exitOK {
		t.Fatalf("-json exit = %d, stderr: %s", code, errb.String())
	}
	var jr jsonReplaceResult
	if err := json.Unmarshal(out.Bytes(), &jr); err != nil {
		t.Fatalf("-json output is not a jsonReplaceResult: %v\n%s", err, out.String())
	}
	if len(jr.Replacements) != 1 || jr.Replacements[0].Label != "Carol" {
		t.Errorf("-json replacements = %+v, want Carol", jr.Replacements)
	}

	for _, tc := range []struct {
		name string
		argv []string
	}{
		{"missing_flags", []string{"replace", "-graph", path}},
		{"bad_pool", []string{"replace", "-graph", path, "-team", "Alice,Bob", "-departing", "Bob", "-pool", "sparsest"}},
		{"bad_norm", []string{"replace", "-graph", path, "-team", "Alice,Bob", "-departing", "Bob", "-norm", "frogs"}},
	} {
		out.Reset()
		errb.Reset()
		if code := run(tc.argv, &out, &errb); code != exitUsage {
			t.Errorf("%s: exit = %d, want %d", tc.name, code, exitUsage)
		}
	}

	// Engine-level validation failures exit with the generic error code.
	out.Reset()
	errb.Reset()
	if code := run([]string{"replace", "-graph", path, "-team", "Alice,Bob", "-departing", "Carol"}, &out, &errb); code != exitError {
		t.Errorf("departing off team: exit = %d, want %d", code, exitError)
	}
}
