package ceps_test

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"time"

	"ceps"
	"ceps/internal/experiments"
)

// servingSmokeRounds is how many cold and warm passes TestServingSmoke
// times, interleaved. Each side reports its median pass: a warm pass lasts
// a few milliseconds, so a single one that a GC cycle or a busy neighbour
// stretches would otherwise decide the verdict.
const servingSmokeRounds = 9

// TestServingSmoke enforces the serving layer's acceptance floor: on
// 50%-overlapping query sets, a warm batch on a cached engine (concurrent
// Do calls, as many in flight as the engine's solve pool has workers)
// must be at least 2x faster per query than sequential cold queries on a
// cache-free engine (Do), each side the median of servingSmokeRounds
// interleaved passes, and the cache must hit more than half its lookups.
func TestServingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped with -short")
	}
	s, err := experiments.NewSetup(0.2, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	sets := overlapQuerySets(s, 8)
	queriesTotal := 0
	for _, qs := range sets {
		queriesTotal += len(qs)
	}

	cold, err := ceps.NewEngine(s.Dataset.Graph)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := ceps.NewEngine(s.Dataset.Graph, ceps.WithCache(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	// The warm engine's pool has the default GOMAXPROCS workers.
	batch := func() {
		t.Helper()
		_, errs := doSets(context.Background(), warm, sets, runtime.GOMAXPROCS(0))
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	batch() // warm pass: fill the cache
	var coldPasses, warmPasses []time.Duration
	for round := 0; round < servingSmokeRounds; round++ {
		start := time.Now()
		for _, qs := range sets {
			if _, err := cold.Do(context.Background(), qs); err != nil {
				t.Fatal(err)
			}
		}
		coldPasses = append(coldPasses, time.Since(start))
		start = time.Now()
		batch()
		warmPasses = append(warmPasses, time.Since(start))
	}
	coldElapsed, warmElapsed := medianDuration(coldPasses), medianDuration(warmPasses)

	st, ok := warm.CacheStats()
	if !ok {
		t.Fatal("cache stats should be available")
	}
	speedup := float64(coldElapsed) / float64(warmElapsed)
	t.Logf("serving smoke: %d sets of %d, hit rate %.3f, cold %v/query, warm %v/query, speedup %.2fx (cold passes %v, warm passes %v)",
		len(sets), len(sets[0]), st.HitRate(), coldElapsed/time.Duration(queriesTotal),
		warmElapsed/time.Duration(queriesTotal), speedup, coldPasses, warmPasses)

	if speedup < 2 {
		t.Errorf("warm batch speedup %.2fx, want >= 2x (cold %v, warm %v)",
			speedup, coldElapsed, warmElapsed)
	}
	if st.HitRate() <= 0.5 {
		t.Errorf("hit rate %.2f, want > 0.5 on a 50%%-overlap workload", st.HitRate())
	}
}

// medianDuration returns the median of ds (the upper one for an even
// count) without reordering ds.
func medianDuration(ds []time.Duration) time.Duration {
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	return sorted[len(sorted)/2]
}
