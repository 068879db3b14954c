package ceps_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"ceps"
)

// assertSameResult compares the caller-visible outputs of two queries
// bit-for-bit: subgraph structure, the per-query score matrix, the
// combined scores, and the solve diagnostics. This is the contract the
// score cache must uphold — serving a vector from cache may never change
// an answer.
func assertSameResult(t *testing.T, want, got *ceps.Result) {
	t.Helper()
	if len(want.Subgraph.Nodes) != len(got.Subgraph.Nodes) {
		t.Fatalf("subgraph sizes differ: %d vs %d", len(want.Subgraph.Nodes), len(got.Subgraph.Nodes))
	}
	for i := range want.Subgraph.Nodes {
		if want.Subgraph.Nodes[i] != got.Subgraph.Nodes[i] {
			t.Fatalf("subgraph node %d differs: %d vs %d", i, want.Subgraph.Nodes[i], got.Subgraph.Nodes[i])
		}
	}
	for i := range want.Subgraph.PathEdges {
		if want.Subgraph.PathEdges[i] != got.Subgraph.PathEdges[i] {
			t.Fatalf("path edge %d differs", i)
		}
	}
	if len(want.R) != len(got.R) {
		t.Fatalf("score matrix rows differ: %d vs %d", len(want.R), len(got.R))
	}
	for i := range want.R {
		for j := range want.R[i] {
			if math.Float64bits(want.R[i][j]) != math.Float64bits(got.R[i][j]) {
				t.Fatalf("R[%d][%d] differs: %v vs %v", i, j, want.R[i][j], got.R[i][j])
			}
		}
	}
	for j := range want.Combined {
		if math.Float64bits(want.Combined[j]) != math.Float64bits(got.Combined[j]) {
			t.Fatalf("Combined[%d] differs: %v vs %v", j, want.Combined[j], got.Combined[j])
		}
	}
	for i := range want.RWRDiagnostics {
		if want.RWRDiagnostics[i] != got.RWRDiagnostics[i] {
			t.Fatalf("diagnostics %d differ: %+v vs %+v", i, want.RWRDiagnostics[i], got.RWRDiagnostics[i])
		}
	}
}

// TestEngineCacheGolden is the serving-layer golden test: for every query
// type × normalization combination, a cache-enabled engine answers
// bit-identically to a cache-free one — on the first (cold, cache-filling)
// query AND on the repeat (warm, cache-served) query.
func TestEngineCacheGolden(t *testing.T) {
	ds := smallDataset(t)
	queries := []int{
		ds.Repository[0][0], ds.Repository[0][1],
		ds.Repository[1][0], ds.Repository[1][1],
	}
	norms := map[string]ceps.NormKind{
		"column":    ceps.NormColumn,
		"penalized": ceps.NormDegreePenalized,
		"symmetric": ceps.NormSymmetric,
	}
	ks := map[string]int{"AND": 0, "OR": 1, "2_softAND": 2}
	for normName, norm := range norms {
		for kName, k := range ks {
			t.Run(normName+"/"+kName, func(t *testing.T) {
				cfg := quickConfig()
				cfg.RWR.Norm = norm
				cfg.K = k
				cold := newEngine(t, ds.Graph, ceps.WithConfig(cfg))
				cached := newEngine(t, ds.Graph, ceps.WithConfig(cfg), ceps.WithCache(8<<20))

				want, err := cold.Do(context.Background(), queries)
				if err != nil {
					t.Fatal(err)
				}
				for round := 0; round < 2; round++ {
					got, err := cached.Do(context.Background(), queries)
					if err != nil {
						t.Fatal(err)
					}
					assertSameResult(t, want, got)
				}
				st, ok := cached.CacheStats()
				if !ok {
					t.Fatal("cache stats should be available")
				}
				if st.Misses != uint64(len(queries)) || st.Hits != uint64(len(queries)) {
					t.Errorf("stats %+v, want %d misses then %d hits", st, len(queries), len(queries))
				}
			})
		}
	}
}

// TestEngineCacheEvictionStaysCorrect: a budget too small to hold every
// vector forces evictions, and answers remain bit-identical throughout.
func TestEngineCacheEvictionStaysCorrect(t *testing.T) {
	ds := smallDataset(t)
	// Budget for roughly one score vector: every multi-query answer evicts.
	budget := int64(8*ds.Graph.N()) + 256
	cold := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()))
	cached := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()), ceps.WithCache(budget))

	sets := [][]int{
		{ds.Repository[0][0], ds.Repository[1][0]},
		{ds.Repository[1][0], ds.Repository[2][0]},
		{ds.Repository[0][0], ds.Repository[1][0]},
	}
	for _, qs := range sets {
		want, err := cold.Do(context.Background(), qs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cached.Do(context.Background(), qs)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, want, got)
	}
	st, _ := cached.CacheStats()
	if st.Evictions == 0 {
		t.Errorf("tiny budget should evict, stats %+v", st)
	}
	if st.BytesUsed > budget {
		t.Errorf("cache over budget: %d > %d", st.BytesUsed, budget)
	}
}

// TestEngineReconfigurePurgesCache: changing the RWR parameters must not
// serve vectors computed under the old ones, and releases the memory.
func TestEngineReconfigurePurgesCache(t *testing.T) {
	ds := smallDataset(t)
	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()), ceps.WithCache(8<<20))
	queries := []int{ds.Repository[0][0], ds.Repository[1][0]}

	if _, err := eng.Do(context.Background(), queries); err != nil {
		t.Fatal(err)
	}
	st, _ := eng.CacheStats()
	if st.Entries != len(queries) || st.Misses != uint64(len(queries)) {
		t.Fatalf("cold stats %+v", st)
	}

	cfg := quickConfig()
	cfg.RWR.C = 0.7 // different walk: every old vector is stale
	if err := eng.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	st, _ = eng.CacheStats()
	if st.Entries != 0 || st.BytesUsed != 0 {
		t.Fatalf("reconfigure should purge, stats %+v", st)
	}

	// The next query under the new config re-solves (misses, not hits),
	// and matches a cold engine configured that way from the start.
	got, err := eng.Do(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newEngine(t, ds.Graph, ceps.WithConfig(cfg)).Do(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, want, got)
	st, _ = eng.CacheStats()
	if st.Hits != 0 {
		t.Errorf("post-reconfigure query must not hit stale entries, stats %+v", st)
	}

	// Reconfiguring only pipeline knobs (not the walk) keeps the cache.
	cfg.Budget = 15
	if err := eng.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	if st, _ = eng.CacheStats(); st.Entries == 0 {
		t.Error("non-RWR reconfigure should keep cached vectors")
	}

	if err := eng.Reconfigure(ceps.Config{}); err == nil {
		t.Error("Reconfigure must validate")
	}
}

// TestEngineOptionValidation: bad construction options fail fast.
func TestEngineOptionValidation(t *testing.T) {
	ds := smallDataset(t)
	if _, err := ceps.NewEngine(nil); err == nil {
		t.Error("nil graph should fail")
	}
	if _, err := ceps.NewEngine(ds.Graph, ceps.WithCache(0)); err == nil {
		t.Error("zero cache budget should fail")
	}
	if _, err := ceps.NewEngine(ds.Graph, ceps.WithWorkers(-1)); err == nil {
		t.Error("negative workers should fail")
	}
	if _, err := ceps.NewEngine(ds.Graph, ceps.WithConfig(ceps.Config{})); err == nil {
		t.Error("invalid config should fail at construction")
	}
}

// TestQueryBatch: a library batch — concurrent Do calls, one per set —
// returns each set's own answer, bit-identical to a cold engine's; a bad
// set fails alone; and overlapping sets share solves through the cache.
func TestQueryBatch(t *testing.T) {
	ds := smallDataset(t)
	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()), ceps.WithCache(8<<20))
	cold := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()))

	sets := [][]int{
		{ds.Repository[0][0], ds.Repository[1][0]},
		{ds.Repository[0][0], ds.Repository[1][0], ds.Repository[2][0]},
		{-1, 5},
		{ds.Repository[1][0], ds.Repository[2][0]},
	}
	results, errs := doSets(context.Background(), eng, sets, len(sets))
	for i := range sets {
		if i == 2 {
			if !errors.Is(errs[i], ceps.ErrBadQuery) {
				t.Fatalf("bad set: err = %v, want ErrBadQuery", errs[i])
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("set %d failed: %v", i, errs[i])
		}
		want, err := cold.Do(context.Background(), sets[i])
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, want, results[i])
	}
	// 3 distinct sources across the good sets' 7 solves; every overlap is
	// a hit (whether served from cache or joined in flight).
	st, _ := eng.CacheStats()
	if st.Misses != 3 {
		t.Errorf("distinct sources should miss exactly once each, stats %+v", st)
	}
	if st.Hits != 4 {
		t.Errorf("overlapping sets should share solves, stats %+v", st)
	}
}

// TestQueryBatchPerQueryTimeout: a call's deadline is its ctx's. In a
// library batch, the set whose ctx deadline has passed fails with the
// deadline sentinel and the other set still answers.
func TestQueryBatchPerQueryTimeout(t *testing.T) {
	ds := smallDataset(t)
	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()))
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	var wg sync.WaitGroup
	var tightErr, okErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, tightErr = eng.Do(ctx, []int{ds.Repository[0][0], ds.Repository[1][0]})
	}()
	go func() {
		defer wg.Done()
		_, okErr = eng.Do(context.Background(), []int{ds.Repository[2][0]}, ceps.WithQueryBudget(1))
	}()
	wg.Wait()
	if !errors.Is(tightErr, ceps.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", tightErr)
	}
	if okErr != nil {
		t.Fatalf("the set without a deadline failed: %v", okErr)
	}
}

// TestQueryBatchCancel: canceling the ctx a library batch shares aborts
// every set in it.
func TestQueryBatchCancel(t *testing.T) {
	ds := smallDataset(t)
	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sets := [][]int{{ds.Repository[0][0], ds.Repository[1][0]}, {ds.Repository[2][0], ds.Repository[3][0]}}
	_, errs := doSets(ctx, eng, sets, len(sets))
	for i, err := range errs {
		if !errors.Is(err, ceps.ErrCanceled) {
			t.Fatalf("set %d: err = %v, want ErrCanceled", i, err)
		}
	}
}

// TestEngineConcurrentReconfigure is the race hammer: queries, batches,
// reconfiguration, and fast-mode toggles all run concurrently against one
// engine. Run under -race (make check does), this is the proof that the
// v2 API's snapshot discipline holds; every query must come back either
// successful or with a typed error, never torn.
func TestEngineConcurrentReconfigure(t *testing.T) {
	ds := smallDataset(t)
	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()), ceps.WithCache(4<<20), ceps.WithWorkers(4))
	queries := []int{ds.Repository[0][0], ds.Repository[1][0]}

	altCfg := quickConfig()
	altCfg.RWR.C = 0.7

	stop := make(chan struct{})
	fail := make(chan error, 64)

	// Churners: flip config and fast mode until the queriers finish.
	var churners sync.WaitGroup
	churners.Add(1)
	go func() {
		defer churners.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			cfg := quickConfig()
			if i%2 == 1 {
				cfg = altCfg
			}
			if err := eng.Reconfigure(cfg); err != nil {
				fail <- err
				return
			}
		}
	}()
	churners.Add(1)
	go func() {
		defer churners.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				pt, err := ceps.PrePartition(context.Background(), ds.Graph, 4, ceps.PartitionOptions{Seed: 1})
				if err != nil {
					fail <- err
					return
				}
				eng.SetPartitioned(pt)
			} else {
				eng.SetPartitioned(nil)
			}
		}
	}()

	// Queriers: plain queries and batches, a fixed amount of work each.
	var queriers sync.WaitGroup
	for w := 0; w < 4; w++ {
		queriers.Add(1)
		go func(w int) {
			defer queriers.Done()
			for i := 0; i < 10; i++ {
				if w%2 == 0 {
					if _, err := eng.Do(context.Background(), queries); err != nil {
						fail <- err
						return
					}
				} else {
					_, errs := doSets(context.Background(), eng, [][]int{queries, queries}, 2)
					for _, err := range errs {
						if err != nil {
							fail <- err
							return
						}
					}
				}
			}
		}(w)
	}

	done := make(chan struct{})
	go func() {
		queriers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("hammer timed out")
	}
	close(stop)
	churners.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
}
