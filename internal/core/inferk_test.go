package core

import (
	"context"
	"testing"

	"ceps/internal/graph"
)

// cliquePair builds two size-6 cliques joined by a single weak bridge.
func cliquePair(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(12)
	for base := 0; base < 12; base += 6 {
		for i := base; i < base+6; i++ {
			for j := i + 1; j < base+6; j++ {
				b.AddEdge(i, j, 3)
			}
		}
	}
	b.AddEdge(0, 6, 1) // weak bridge
	return b.MustBuild()
}

// threeIslands builds three size-5 cliques with no connections at all.
func threeIslands(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(15)
	for base := 0; base < 15; base += 5 {
		for i := base; i < base+5; i++ {
			for j := i + 1; j < base+5; j++ {
				b.AddEdge(i, j, 2)
			}
		}
	}
	return b.MustBuild()
}

func TestInferKSingleCommunityPrefersAND(t *testing.T) {
	// All queries inside one clique support each other: k = Q.
	g := cliquePair(t)
	cfg := fastConfig()
	queries := []int{1, 2, 3, 4}
	k, supports, err := InferK(g, queries, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if k != 4 {
		t.Fatalf("inferred k = %d (supports %v), want AND (4) for one tight group", k, supports)
	}
}

func TestInferKSplitCommunitiesPrefersSoftAND(t *testing.T) {
	// Two queries per clique: each query is supported only by its peer,
	// so k must come out as 2 — the Fig. 1(a) regime.
	g := cliquePair(t)
	cfg := fastConfig()
	queries := []int{1, 2, 7, 8}
	k, supports, err := InferK(g, queries, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 {
		t.Fatalf("inferred k = %d (supports %v), want 2 for a 2+2 split", k, supports)
	}
}

func TestInferKUnrelatedQueriesPreferOR(t *testing.T) {
	// One query per disconnected island: nobody supports anybody → OR.
	g := threeIslands(t)
	cfg := fastConfig()
	k, supports, err := InferK(g, []int{0, 5, 10}, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 {
		t.Fatalf("inferred k = %d (supports %v), want OR (1) for unrelated queries", k, supports)
	}
}

func TestInferKValidation(t *testing.T) {
	g := cliquePair(t)
	cfg := fastConfig()
	if _, _, err := InferK(g, []int{1}, cfg, 0); err == nil {
		t.Error("single query should fail")
	}
	if _, _, err := InferK(g, nil, cfg, 0); err == nil {
		t.Error("empty queries should fail")
	}
	bad := cfg
	bad.Budget = 0
	if _, _, err := InferK(g, []int{1, 2}, bad, 0); err == nil {
		t.Error("bad config should fail")
	}
}

func TestInferKThresholdSensitivity(t *testing.T) {
	// With an absurdly strict threshold every foreign support vanishes and
	// k collapses to 1; with a loose one everything supports everything.
	g := cliquePair(t)
	cfg := fastConfig()
	queries := []int{1, 2, 7, 8}
	strict, _, err := InferK(g, queries, cfg, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if strict != 1 {
		t.Fatalf("strict threshold gave k = %d, want 1", strict)
	}
	loose, _, err := InferK(g, queries, cfg, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if loose != 4 {
		t.Fatalf("loose threshold gave k = %d, want 4", loose)
	}
}

func TestCePSAutoK(t *testing.T) {
	g := cliquePair(t)
	cfg := fastConfig()
	cfg.Budget = 4
	res, err := CePSAutoK(context.Background(), g, []int{1, 2, 7, 8}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Combiner.String() != "2_softAND" {
		t.Fatalf("auto-k combiner = %s, want 2_softAND", res.Combiner)
	}
	for _, q := range []int{1, 2, 7, 8} {
		if !res.Subgraph.Has(q) {
			t.Fatal("query missing from auto-k result")
		}
	}
}

func TestInferKOnDBLPCommunities(t *testing.T) {
	// Integration: 2+2 repository queries from two synthetic communities
	// should not infer a strict AND.
	ds := testDataset(t, 29)
	cfg := fastConfig()
	queries := []int{
		ds.Repository[0][0], ds.Repository[0][1],
		ds.Repository[1][0], ds.Repository[1][1],
	}
	k, supports, err := InferK(ds.Graph, queries, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("inferred k = %d, supports = %v", k, supports)
	if k == 4 {
		t.Fatalf("k = 4 (AND) inferred for split communities (supports %v)", supports)
	}
	if k < 1 {
		t.Fatalf("k = %d out of range", k)
	}
}
