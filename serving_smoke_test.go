package ceps_test

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"ceps"
	"ceps/internal/experiments"
)

// servingSmokeReport is the JSON shape `make bench-smoke` writes to
// BENCH_serving.json: the serving layer's headline numbers on the
// standard 50%-overlap batch workload.
type servingSmokeReport struct {
	// Sets and MembersPerSet describe the workload: Sets query sets of
	// MembersPerSet members each, consecutive sets sharing half.
	Sets          int `json:"sets"`
	MembersPerSet int `json:"membersPerSet"`
	// HitRate is the cache hit rate after the measured warm batches.
	HitRate float64 `json:"hitRate"`
	// ColdNsPerQuery: sequential Do on a cache-free engine, median
	// of servingSmokeRounds passes.
	ColdNsPerQuery int64 `json:"coldNsPerQuery"`
	// WarmNsPerQuery: DoBatch on a pre-warmed cached engine, median
	// of servingSmokeRounds passes.
	WarmNsPerQuery int64 `json:"warmNsPerQuery"`
	// Speedup = cold / warm; the acceptance floor is 2.
	Speedup float64 `json:"speedup"`
}

// servingSmokeRounds is how many cold and warm passes TestServingSmoke
// times, interleaved. Each side reports its median pass: a warm pass lasts
// a few milliseconds, so a single one that a GC cycle or a busy neighbour
// stretches would otherwise decide the verdict.
const servingSmokeRounds = 9

// TestServingSmoke measures the cold-sequential vs warm-batch serving
// numbers and, when BENCH_SERVING_OUT names a file, writes them there as
// JSON (this is what `make bench-smoke` runs). It always enforces the
// acceptance floor: a warm batch over 50%-overlapping sets must be at
// least 2x faster per query than sequential cold queries.
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
	for _, item := range warm.DoBatch(context.Background(), sets) { // warm pass: fill the cache
		if item.Err != nil {
			t.Fatal(item.Err)
		}
	}
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
		for _, item := range warm.DoBatch(context.Background(), sets) {
			if item.Err != nil {
				t.Fatal(item.Err)
			}
		}
		warmPasses = append(warmPasses, time.Since(start))
	}
	coldElapsed, warmElapsed := medianDuration(coldPasses), medianDuration(warmPasses)

	st, ok := warm.CacheStats()
	if !ok {
		t.Fatal("cache stats should be available")
	}
	rep := servingSmokeReport{
		Sets:           len(sets),
		MembersPerSet:  len(sets[0]),
		HitRate:        st.HitRate(),
		ColdNsPerQuery: coldElapsed.Nanoseconds() / int64(queriesTotal),
		WarmNsPerQuery: warmElapsed.Nanoseconds() / int64(queriesTotal),
		Speedup:        float64(coldElapsed) / float64(warmElapsed),
	}
	t.Logf("serving smoke: %+v (cold passes %v, warm passes %v)", rep, coldPasses, warmPasses)

	if rep.Speedup < 2 {
		t.Errorf("warm batch speedup %.2fx, want >= 2x (cold %v, warm %v)",
			rep.Speedup, coldElapsed, warmElapsed)
	}
	if rep.HitRate <= 0.5 {
		t.Errorf("hit rate %.2f, want > 0.5 on a 50%%-overlap workload", rep.HitRate)
	}

	if out := os.Getenv("BENCH_SERVING_OUT"); out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// medianDuration returns the median of ds (the upper one for an even
// count) without reordering ds.
func medianDuration(ds []time.Duration) time.Duration {
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	return sorted[len(sorted)/2]
}
