package main

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"ceps"
)

func testGraph(t testing.TB) *ceps.Graph {
	t.Helper()
	b := ceps.NewBuilder(0)
	b.AddNode("Alice")
	b.AddNode("Bob")
	b.AddNode("Carol")
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestParseQueriesByID(t *testing.T) {
	g := testGraph(t)
	qs, err := parseQueries(g, "0, 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 || qs[0] != 0 || qs[1] != 2 {
		t.Fatalf("qs = %v", qs)
	}
}

func TestParseQueriesByLabel(t *testing.T) {
	g := testGraph(t)
	qs, err := parseQueries(g, "Alice,Carol")
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 || qs[0] != 0 || qs[1] != 2 {
		t.Fatalf("qs = %v", qs)
	}
}

func TestParseQueriesMixed(t *testing.T) {
	g := testGraph(t)
	qs, err := parseQueries(g, "Bob, 2,")
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 || qs[0] != 1 || qs[1] != 2 {
		t.Fatalf("qs = %v", qs)
	}
}

func TestWriteJSON(t *testing.T) {
	g := testGraph(t)
	cfg := ceps.DefaultConfig()
	cfg.Budget = 2
	res, err := ceps.Query(context.Background(), g, []int{0, 2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := writeJSON(&sb, g, res, []int{0, 2}, cfg, true); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if out["queryType"] != "AND" {
		t.Errorf("queryType = %v", out["queryType"])
	}
	nodes := out["nodes"].([]any)
	if len(nodes) < 3 {
		t.Fatalf("nodes = %v", nodes)
	}
	// Sorted by descending score.
	prev := 2.0
	for _, n := range nodes {
		s := n.(map[string]any)["score"].(float64)
		if s > prev {
			t.Fatal("nodes not sorted by score")
		}
		prev = s
	}
}

func TestParseQueriesErrors(t *testing.T) {
	g := testGraph(t)
	for _, in := range []string{"", " , ", "Nobody", "99", "-1"} {
		if _, err := parseQueries(g, in); err == nil {
			t.Errorf("parseQueries(%q) should fail", in)
		}
	}
}
