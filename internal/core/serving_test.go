package core

import (
	"context"
	"math"
	"testing"

	"ceps/internal/partition"
	"ceps/internal/rwr"
)

func servingState(budget int64, workers int) Serving {
	return Serving{Cache: rwr.NewScoreCache(budget), Pool: rwr.NewPool(workers)}
}

// TestRunnerServingBitIdentical: a serving Runner returns results
// bit-identical to the plain Runner, cold and warm.
func TestRunnerServingBitIdentical(t *testing.T) {
	ds := testDataset(t, 7)
	cfg := fastConfig()
	queries := []int{ds.Repository[0][0], ds.Repository[1][0], ds.Repository[1][1]}

	plain, err := NewRunner(ds.Graph, cfg.RWR)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Query(queries, cfg)
	if err != nil {
		t.Fatal(err)
	}

	serving, err := NewRunner(ds.Graph, cfg.RWR)
	if err != nil {
		t.Fatal(err)
	}
	serving.WithServing(servingState(8<<20, 4))
	for round := 0; round < 2; round++ {
		got, err := serving.Query(queries, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsIdentical(t, want, got)
	}
	st := serving.sv.Cache.Stats()
	if st.Misses != uint64(len(queries)) || st.Hits != uint64(len(queries)) {
		t.Errorf("cache stats %+v, want %d misses then %d hits", st, len(queries), len(queries))
	}
}

// TestPartitionedServingBitIdentical: the Fast CePS serving path matches
// the plain fast path exactly, and repeat queries over the same partition
// union hit the cache.
func TestPartitionedServingBitIdentical(t *testing.T) {
	ds := testDataset(t, 7)
	cfg := fastConfig()
	queries := []int{ds.Repository[0][0], ds.Repository[0][1]}

	pt, err := PrePartition(ds.Graph, 6, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := pt.CePSCtx(context.Background(), queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Degraded != nil {
		t.Skip("union degenerate in this draw; serving equivalence needs the fast path")
	}

	sv := servingState(8<<20, 4)
	for round := 0; round < 2; round++ {
		got, err := pt.CePSServingCtx(context.Background(), queries, cfg, sv)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsIdentical(t, want, got)
	}
	st := sv.Cache.Stats()
	if st.Hits == 0 {
		t.Errorf("second fast query over the same union should hit, stats %+v", st)
	}
}

// TestUnionSpaceIsolation: two partition states over the same graph never
// share union key spaces, and neither collides with the full-graph space.
func TestUnionSpaceIsolation(t *testing.T) {
	ds := testDataset(t, 7)
	a, err := PrePartition(ds.Graph, 4, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PrePartition(ds.Graph, 4, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.id == 0 || b.id == 0 || a.id == b.id {
		t.Fatalf("partition ids not unique: %d, %d", a.id, b.id)
	}
	cfg := fastConfig().RWR
	parts := []int{0, 1}
	if unionSpace(cfg, a.id, parts) == unionSpace(cfg, b.id, parts) {
		t.Fatal("union spaces collide across partition states")
	}
	if unionSpace(cfg, a.id, parts) == fullGraphSpace(cfg) {
		t.Fatal("union space collides with the full-graph space")
	}
}

// assertResultsIdentical compares the caller-visible pipeline outputs
// bit-for-bit: subgraph structure, score matrix, combined scores, and
// diagnostics.
func assertResultsIdentical(t *testing.T, want, got *Result) {
	t.Helper()
	if len(want.Subgraph.Nodes) != len(got.Subgraph.Nodes) {
		t.Fatalf("subgraph sizes differ: %d vs %d", len(want.Subgraph.Nodes), len(got.Subgraph.Nodes))
	}
	for i := range want.Subgraph.Nodes {
		if want.Subgraph.Nodes[i] != got.Subgraph.Nodes[i] {
			t.Fatalf("subgraph node %d differs: %d vs %d", i, want.Subgraph.Nodes[i], got.Subgraph.Nodes[i])
		}
	}
	if len(want.Subgraph.PathEdges) != len(got.Subgraph.PathEdges) {
		t.Fatalf("path edge counts differ: %d vs %d", len(want.Subgraph.PathEdges), len(got.Subgraph.PathEdges))
	}
	for i, e := range want.Subgraph.PathEdges {
		g := got.Subgraph.PathEdges[i]
		if e.U != g.U || e.V != g.V || math.Float64bits(e.W) != math.Float64bits(g.W) {
			t.Fatalf("path edge %d differs: %+v vs %+v", i, e, g)
		}
	}
	if len(want.R) != len(got.R) {
		t.Fatalf("score matrix rows differ: %d vs %d", len(want.R), len(got.R))
	}
	for i := range want.R {
		if len(want.R[i]) != len(got.R[i]) {
			t.Fatalf("R[%d] lengths differ: %d vs %d", i, len(want.R[i]), len(got.R[i]))
		}
		for j := range want.R[i] {
			if math.Float64bits(want.R[i][j]) != math.Float64bits(got.R[i][j]) {
				t.Fatalf("R[%d][%d] differs: %v vs %v", i, j, want.R[i][j], got.R[i][j])
			}
		}
	}
	if len(want.Combined) != len(got.Combined) {
		t.Fatalf("combined lengths differ: %d vs %d", len(want.Combined), len(got.Combined))
	}
	for j := range want.Combined {
		if math.Float64bits(want.Combined[j]) != math.Float64bits(got.Combined[j]) {
			t.Fatalf("Combined[%d] differs: %v vs %v", j, want.Combined[j], got.Combined[j])
		}
	}
	if len(want.RWRDiagnostics) != len(got.RWRDiagnostics) {
		t.Fatalf("diagnostics counts differ")
	}
	for i := range want.RWRDiagnostics {
		if want.RWRDiagnostics[i] != got.RWRDiagnostics[i] {
			t.Fatalf("diagnostics %d differ: %+v vs %+v", i, want.RWRDiagnostics[i], got.RWRDiagnostics[i])
		}
	}
}
