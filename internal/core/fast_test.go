package core

import (
	"math"
	"math/rand"
	"testing"

	"ceps/internal/partition"
	"ceps/internal/rwr"
)

func TestPrePartitionAndFastCePS(t *testing.T) {
	ds := testDataset(t, 11)
	pt, err := PrePartition(ds.Graph, 6, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pt.PartitionTime <= 0 {
		t.Error("partition time not recorded")
	}

	rng := rand.New(rand.NewSource(4))
	queries, err := ds.RandomQueries(rng, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.Budget = 10

	fast, err := pt.CePS(queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Results are in original ids.
	for _, q := range queries {
		if !fast.Subgraph.Has(q) {
			t.Fatalf("query %d missing", q)
		}
	}
	for _, u := range fast.Subgraph.Nodes {
		if u < 0 || u >= ds.Graph.N() {
			t.Fatalf("node %d not an original id", u)
		}
	}
	for _, e := range fast.Subgraph.PathEdges {
		if !ds.Graph.HasEdge(e.U, e.V) {
			t.Fatalf("path edge (%d,%d) not in original graph", e.U, e.V)
		}
	}
	// The working graph must be smaller than the full graph (that is the
	// whole point) yet contain all queries.
	if fast.WorkGraph.N() >= ds.Graph.N() {
		t.Errorf("working graph has %d nodes, full graph %d", fast.WorkGraph.N(), ds.Graph.N())
	}
	if fast.ToOrig == nil {
		t.Fatal("fast result should carry an id mapping")
	}
	// Metrics work in working-graph space.
	if nr := fast.NRatio(); nr <= 0 || nr > 1 {
		t.Errorf("fast NRatio = %v", nr)
	}
	if er, err := fast.ERatio(); err != nil || er < 0 || er > 1 {
		t.Errorf("fast ERatio = %v, %v", er, err)
	}
}

func TestRelRatioAgainstFullRun(t *testing.T) {
	ds := testDataset(t, 13)
	cfg := fastConfig()
	cfg.Budget = 10
	rng := rand.New(rand.NewSource(5))
	queries, err := ds.RandomQueries(rng, 2, true)
	if err != nil {
		t.Fatal(err)
	}

	full, err := CePS(ds.Graph, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := PrePartition(ds.Graph, 4, partition.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := pt.CePS(queries, cfg)
	if err != nil {
		t.Fatal(err)
	}

	rel, err := RelRatio(full, fast)
	if err != nil {
		t.Fatal(err)
	}
	if rel <= 0 || rel > 1.5 {
		t.Fatalf("RelRatio = %v, expected a sane quality ratio", rel)
	}
	// A full run compared with itself is exactly 1.
	self, err := RelRatio(full, full)
	if err != nil {
		t.Fatal(err)
	}
	if self != 1 {
		t.Fatalf("self RelRatio = %v, want 1", self)
	}
	// Using a fast result as the reference is rejected.
	if _, err := RelRatio(fast, full); err == nil {
		t.Error("fast reference should be rejected")
	}
}

func TestFastCePSMorePartitionsSmallerWorkGraph(t *testing.T) {
	ds := testDataset(t, 17)
	cfg := fastConfig()
	queries := []int{ds.Repository[0][0], ds.Repository[0][1]} // same community
	var prevN int
	for i, p := range []int{2, 8, 24} {
		pt, err := PrePartition(ds.Graph, p, partition.Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		fast, err := pt.CePS(queries, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := fast.WorkGraph.N()
		if i > 0 && n > prevN {
			t.Errorf("p=%d work graph grew: %d > %d", p, n, prevN)
		}
		prevN = n
	}
}

func TestFastCePSSinglePartitionEqualsFull(t *testing.T) {
	// With p = 1 the partition union is the whole graph, so Fast CePS must
	// reproduce the full-graph answer bit for bit under every
	// normalization: a union whose weights or degrees differed from the
	// parent's in the last bit would show in R and Combined.
	ds := testDataset(t, 83)
	queries := []int{ds.Repository[0][0], ds.Repository[2][0]}
	pt, err := PrePartition(ds.Graph, 1, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, norm := range []rwr.NormKind{rwr.NormColumn, rwr.NormDegreePenalized, rwr.NormSymmetric} {
		cfg := fastConfig()
		cfg.Budget = 8
		cfg.RWR.Norm = norm
		full, err := CePS(ds.Graph, queries, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := pt.CePS(queries, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fast.Fallback != nil {
			t.Fatalf("%v: p=1 fell back: %+v", norm, fast.Fallback)
		}
		if fast.WorkGraph.N() != ds.Graph.N() || fast.WorkGraph.M() != ds.Graph.M() {
			t.Fatalf("%v: p=1 work graph is %d nodes / %d edges, want %d / %d", norm,
				fast.WorkGraph.N(), fast.WorkGraph.M(), ds.Graph.N(), ds.Graph.M())
		}
		if math.Float64bits(fast.WorkGraph.TotalWeight()) != math.Float64bits(ds.Graph.TotalWeight()) {
			t.Fatalf("%v: p=1 work graph total weight differs in its bits", norm)
		}
		assertResultsIdentical(t, full, fast)
		rel, err := RelRatio(full, fast)
		if err != nil {
			t.Fatal(err)
		}
		if rel != 1 {
			t.Fatalf("%v: p=1 RelRatio = %v, want exactly 1", norm, rel)
		}
	}
}

func TestFastCePSValidation(t *testing.T) {
	ds := testDataset(t, 19)
	pt, err := PrePartition(ds.Graph, 4, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pt.CePS(nil, fastConfig()); err == nil {
		t.Error("empty queries should fail")
	}
	if _, err := pt.CePS([]int{-1}, fastConfig()); err == nil {
		t.Error("bad query should fail")
	}
	bad := fastConfig()
	bad.Budget = 0
	if _, err := pt.CePS([]int{1}, bad); err == nil {
		t.Error("bad config should fail")
	}
	if _, err := PrePartition(nil, 4, partition.Options{}); err == nil {
		t.Error("nil graph should fail")
	}
	if _, err := PrePartition(ds.Graph, 0, partition.Options{}); err == nil {
		t.Error("p=0 should fail")
	}
}

func TestFastCePSQualityReasonable(t *testing.T) {
	// With queries in one community and a community-respecting partition,
	// Fast CePS should retain most of the full run's captured goodness.
	ds := testDataset(t, 23)
	cfg := fastConfig()
	cfg.Budget = 12
	queries := []int{ds.Repository[1][0], ds.Repository[1][2]}
	full, err := CePS(ds.Graph, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := PrePartition(ds.Graph, 3, partition.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := pt.CePS(queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := RelRatio(full, fast)
	if err != nil {
		t.Fatal(err)
	}
	if rel < 0.5 {
		t.Errorf("RelRatio = %v; partitioned quality collapsed", rel)
	}
}
