package ceps_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"ceps"
)

// fallbackSets returns n query pairs that Fast CePS answers on the full
// graph under pt because their partition union separates them. A
// NoFallback copy of pt probes each pair; it refuses a separated pair
// before any solve.
func fallbackSets(t *testing.T, ds *ceps.Dataset, pt *ceps.Partitioned, n int) [][]int {
	t.Helper()
	probe := *pt
	probe.NoFallback = true
	var sets [][]int
	for a := 0; a < ds.Graph.N() && len(sets) < n; a += 7 {
		b := (a*13 + ds.Graph.N()/2) % ds.Graph.N()
		if a == b || pt.Partition.Assign[a] == pt.Partition.Assign[b] {
			continue
		}
		_, err := probe.CePSCtx(context.Background(), []int{a, b}, quickConfig())
		if errors.Is(err, ceps.ErrDegeneratePartition) {
			sets = append(sets, []int{a, b})
		}
	}
	if len(sets) < n {
		t.Fatalf("found %d separated query pairs, want %d", len(sets), n)
	}
	return sets
}

// sameAnswerBits reports whether two answers agree bit for bit in their
// score rows, combined scores and subgraph (nodes, path edges, induced
// edges): resultEquals with Float64bits and the edge lists.
func sameAnswerBits(want, got *ceps.Result) bool {
	if !resultEquals(want, got) ||
		len(want.Subgraph.PathEdges) != len(got.Subgraph.PathEdges) ||
		len(want.Subgraph.InducedEdges) != len(got.Subgraph.InducedEdges) {
		return false
	}
	for i := range want.R {
		for j := range want.R[i] {
			if math.Float64bits(want.R[i][j]) != math.Float64bits(got.R[i][j]) {
				return false
			}
		}
	}
	for j := range want.Combined {
		if math.Float64bits(want.Combined[j]) != math.Float64bits(got.Combined[j]) {
			return false
		}
	}
	for _, edges := range [][2][]ceps.Edge{
		{want.Subgraph.PathEdges, got.Subgraph.PathEdges},
		{want.Subgraph.InducedEdges, got.Subgraph.InducedEdges},
	} {
		for i, e := range edges[0] {
			g := edges[1][i]
			if e.U != g.U || e.V != g.V || math.Float64bits(e.W) != math.Float64bits(g.W) {
				return false
			}
		}
	}
	return true
}

// checkFallback asserts that res is a Fast CePS fallback answer marked as
// one.
func checkFallback(t *testing.T, res *ceps.Result) {
	t.Helper()
	if res.Fallback == nil || res.Fallback.From != "fast-ceps" || res.Fallback.To != "full-ceps" {
		t.Fatalf("Fallback = %+v, want fast-ceps → full-ceps", res.Fallback)
	}
	if res.Degraded == nil || res.Degraded.Mode != "full_graph_fallback" || res.Degraded.Reason != res.Fallback.Reason {
		t.Fatalf("Degraded = %+v, want full_graph_fallback for %q", res.Degraded, res.Fallback.Reason)
	}
}

// TestFastFallbackSharedRunner: a Fast CePS fallback on a cached,
// coalescing engine answers on the engine's full-graph runner — the
// solver a full-graph Do built before fast mode was on — and its answer
// is bit-identical to the plain, query-local fallback.
func TestFastFallbackSharedRunner(t *testing.T) {
	ds := smallDataset(t)
	cfg := quickConfig()
	eng := newEngine(t, ds.Graph, ceps.WithConfig(cfg), ceps.WithCache(32<<20),
		ceps.WithCoalescing(ceps.CoalesceOptions{}))
	ctx := context.Background()
	full, err := eng.Do(ctx, []int{ds.Repository[0][0], ds.Repository[1][0]})
	if err != nil {
		t.Fatal(err)
	}
	pt := setPartitions(t, eng, 16)
	for _, q := range fallbackSets(t, ds, pt, 2) {
		res, err := eng.Do(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		checkFallback(t, res)
		want, err := pt.CePSCtx(ctx, q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkFallback(t, want)
		if *res.Fallback != *want.Fallback {
			t.Errorf("Fallback %+v, plain path %+v", res.Fallback, want.Fallback)
		}
		assertSameResult(t, want, res)
		if !sameAnswerBits(want, res) {
			t.Fatalf("fallback for %v differs from the plain path", q)
		}
		if res.Solver != full.Solver {
			t.Errorf("fallback for %v solved on its own solver, not the engine's full-graph runner", q)
		}
	}
}

// TestFastFallbackConcurrentSharedRunner races fallbacks on a fresh
// engine — no Prepare, so the full-graph runner is built under contention
// — against Reconfigure flipping the walk config. Every answer must match
// the plain fallback under one of the two configs, bit for bit.
func TestFastFallbackConcurrentSharedRunner(t *testing.T) {
	ds := smallDataset(t)
	base := quickConfig()
	alt := base
	alt.RWR.C = 0.7
	eng := newEngine(t, ds.Graph, ceps.WithConfig(base), ceps.WithCache(32<<20),
		ceps.WithCoalescing(ceps.CoalesceOptions{}), ceps.WithWorkers(2))
	pt := setPartitions(t, eng, 16)
	sets := fallbackSets(t, ds, pt, 3)
	want := make([][2]*ceps.Result, len(sets))
	for i, q := range sets {
		for j, cfg := range []ceps.Config{base, alt} {
			res, err := pt.CePSCtx(context.Background(), q, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want[i][j] = res
		}
	}

	stop := make(chan struct{})
	fail := make(chan error, 64)
	var churner sync.WaitGroup
	churner.Add(1)
	go func() {
		defer churner.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			cfg := base
			if i%2 == 1 {
				cfg = alt
			}
			if err := eng.Reconfigure(cfg); err != nil {
				fail <- err
				return
			}
		}
	}()
	var queriers sync.WaitGroup
	for w := 0; w < 4; w++ {
		queriers.Add(1)
		go func(w int) {
			defer queriers.Done()
			for i := 0; i < 6; i++ {
				k := (w + i) % len(sets)
				res, err := eng.Do(context.Background(), sets[k])
				if err != nil {
					fail <- err
					return
				}
				if res.Fallback == nil {
					fail <- errors.New("separated query set answered without a fallback")
					return
				}
				if !sameAnswerBits(want[k][0], res) && !sameAnswerBits(want[k][1], res) {
					fail <- errors.New("concurrent fallback answer matches neither config's plain fallback")
					return
				}
			}
		}(w)
	}
	queriers.Wait()
	close(stop)
	churner.Wait()
	close(fail)
	for err := range fail {
		t.Error(err)
	}
}

// TestFastModeSinglePartitionEngineBitIdentical: with one part the Fast
// CePS union is the whole graph, so a cached, coalescing fast-mode engine
// must answer exactly as a plain full-graph engine does, cold and warm,
// under every normalization.
func TestFastModeSinglePartitionEngineBitIdentical(t *testing.T) {
	ds := smallDataset(t)
	q := []int{ds.Repository[0][0], ds.Repository[2][0]}
	for _, norm := range []ceps.NormKind{ceps.NormColumn, ceps.NormDegreePenalized, ceps.NormSymmetric} {
		cfg := quickConfig()
		cfg.RWR.Norm = norm
		fast := newEngine(t, ds.Graph, ceps.WithConfig(cfg), ceps.WithCache(32<<20),
			ceps.WithCoalescing(ceps.CoalesceOptions{}))
		setPartitions(t, fast, 1)
		want, err := newEngine(t, ds.Graph, ceps.WithConfig(cfg)).Do(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			got, err := fast.Do(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if got.Fallback != nil || got.WorkGraph.N() != ds.Graph.N() {
				t.Fatalf("%v pass %d: want a Fast CePS answer over the whole graph, got fallback %+v on %d nodes",
					norm, pass, got.Fallback, got.WorkGraph.N())
			}
			assertSameResult(t, want, got)
			if !sameAnswerBits(want, got) {
				t.Fatalf("%v pass %d: p=1 fast-mode answer differs from full CePS", norm, pass)
			}
		}
	}
}

// TestFastFallbackForeignGraphStaysLocal: partition state installed over
// another graph than the engine's must not fall back onto the engine's
// full-graph runner, which walks a different graph; its fallback solves
// on its own graph, exactly as the plain path does.
func TestFastFallbackForeignGraphStaysLocal(t *testing.T) {
	ds := smallDataset(t)
	cfg := ceps.ScaleDBLP(ceps.DefaultDBLPConfig(), 0.1)
	cfg.Seed = 43
	other, err := ceps.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()), ceps.WithCache(32<<20))
	pt, err := ceps.PrePartition(context.Background(), other.Graph, 16, ceps.PartitionOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetPartitioned(pt)
	q := fallbackSets(t, other, pt, 1)[0]
	res, err := eng.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	checkFallback(t, res)
	want, err := pt.CePSCtx(context.Background(), q, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.WorkGraph != other.Graph || !sameAnswerBits(want, res) {
		t.Fatal("fallback over a foreign partition did not answer on its own graph")
	}
}
