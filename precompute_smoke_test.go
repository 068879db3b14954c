package ceps_test

import (
	"context"
	"testing"
	"time"

	"ceps"
	"ceps/internal/artifact"
	"ceps/internal/experiments"
)

// precomputeSmokeReport holds the cold-start numbers the precompute tier
// exists to fix. "Cold" here means a freshly started engine whose cache is
// empty — the restart/failover case — measured three ways: artifact-backed,
// bare iterative, and (for scale) the same workload warm from cache.
type precomputeSmokeReport struct {
	Nodes   int
	Queries int
	// ArtifactHitRate is the tier hit rate over the cold pass; the
	// acceptance floor is 0.9 (a full-graph artifact ⇒ every source
	// should be served).
	ArtifactHitRate float64
	// ColdArtifactNsPerQuery: first pass on a fresh engine with the tier.
	ColdArtifactNsPerQuery int64
	// ColdIterativeNsPerQuery: first pass on a fresh engine without it.
	ColdIterativeNsPerQuery int64
	// WarmCacheNsPerQuery: repeat pass served from the score cache.
	WarmCacheNsPerQuery int64
	// ColdVsWarm = ColdArtifact / WarmCache; the acceptance ceiling is 2.
	ColdVsWarm float64
	// IterativeVsWarm = ColdIterative / WarmCache, reported for contrast
	// (typically far above ColdVsWarm; not asserted — it measures the
	// solver, not the tier).
	IterativeVsWarm float64
}

// TestPrecomputeSmoke pins the precompute tier's reason to exist: on a
// DBLP-scale substrate, cold queries against mmapped artifacts must land
// within 2x of warm-cache latency, and the tier must actually serve them
// (hit rate >= 0.9).
func TestPrecomputeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped with -short")
	}
	s, err := experiments.NewSetup(0.2, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := s.Dataset.Graph
	sets := overlapQuerySets(s, 8)
	queriesTotal := 0
	for _, qs := range sets {
		queriesTotal += len(qs)
	}

	// Precompute a full-graph artifact, as cepspre would offline.
	dir := t.TempDir()
	cfg := ceps.DefaultConfig()
	if _, err := artifact.Build(context.Background(), g, artifact.BuildConfig{
		RWR:         cfg.RWR,
		IncludeFull: true,
		ByteBudget:  256 << 20,
	}, dir); err != nil {
		t.Fatal(err)
	}

	// Cold, no artifacts: the restart penalty the tier removes.
	bare, err := ceps.NewEngine(g, ceps.WithConfig(cfg), ceps.WithCache(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, qs := range sets {
		if _, err := bare.Do(context.Background(), qs); err != nil {
			t.Fatal(err)
		}
	}
	coldIterative := time.Since(start)

	// Cold, artifacts mmapped: same fresh-start state, tier bound.
	arte, err := ceps.NewEngine(g, ceps.WithConfig(cfg), ceps.WithCache(64<<20), ceps.WithArtifactDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer arte.Close()
	start = time.Now()
	for _, qs := range sets {
		if _, err := arte.Do(context.Background(), qs); err != nil {
			t.Fatal(err)
		}
	}
	coldArtifact := time.Since(start)

	// Warm: the same engine again, now answering from the score cache.
	start = time.Now()
	for _, qs := range sets {
		if _, err := arte.Do(context.Background(), qs); err != nil {
			t.Fatal(err)
		}
	}
	warmCache := time.Since(start)

	st, ok := arte.ArtifactStats()
	if !ok {
		t.Fatal("artifact stats should be available")
	}
	rep := precomputeSmokeReport{
		Nodes:                   g.N(),
		Queries:                 queriesTotal,
		ArtifactHitRate:         st.HitRate(),
		ColdArtifactNsPerQuery:  coldArtifact.Nanoseconds() / int64(queriesTotal),
		ColdIterativeNsPerQuery: coldIterative.Nanoseconds() / int64(queriesTotal),
		WarmCacheNsPerQuery:     warmCache.Nanoseconds() / int64(queriesTotal),
		ColdVsWarm:              float64(coldArtifact) / float64(warmCache),
		IterativeVsWarm:         float64(coldIterative) / float64(warmCache),
	}
	t.Logf("precompute smoke: %+v", rep)

	if rep.ArtifactHitRate < 0.9 {
		t.Errorf("artifact hit rate %.2f, want >= 0.9 (a full-graph artifact should serve every cold source)",
			rep.ArtifactHitRate)
	}
	if rep.ColdVsWarm > 2 {
		t.Errorf("artifact-served cold pass is %.2fx warm-cache latency, want <= 2x (cold %v, warm %v)",
			rep.ColdVsWarm, coldArtifact, warmCache)
	}
}
