package ceps_test

import (
	"context"
	"math"
	"slices"
	"testing"
	"time"

	"ceps"
)

// scoreBits snapshots a score matrix as bit patterns.
func scoreBits(R [][]float64) [][]uint64 {
	out := make([][]uint64, len(R))
	for i, row := range R {
		out[i] = make([]uint64, len(row))
		for j, v := range row {
			out[i][j] = math.Float64bits(v)
		}
	}
	return out
}

// scribble overwrites every score a result exposes, as a careless caller
// might.
func scribble(res *ceps.Result) {
	for _, row := range res.R {
		for j := range row {
			row[j] = math.NaN()
		}
	}
	for j := range res.Combined {
		res.Combined[j] = math.Inf(1)
	}
}

// sameRows reports whether R matches the snapshot bit for bit.
func sameRows(R [][]float64, want [][]uint64) bool {
	return slices.EqualFunc(scoreBits(R), want, slices.Equal[[]uint64])
}

// TestScribbledResultsNeverChangeLaterAnswers: the serving layer shares
// cached score vectors read-only, and Result.R is where they leave the
// engine, so writing to a Result's scores must never reach a later
// answer — on the plain, cached, coalesced and Fast CePS engines, through
// single and concurrent Do calls.
func TestScribbledResultsNeverChangeLaterAnswers(t *testing.T) {
	ds := smallDataset(t)
	set := []int{ds.Repository[0][0], ds.Repository[0][1], ds.Repository[1][0]}
	configs := []struct {
		name  string
		opts  []ceps.Option
		parts int // install Fast CePS state with this many parts
	}{
		{"plain", nil, 0},
		{"cached", []ceps.Option{ceps.WithCache(16 << 20)}, 0},
		{"coalesced", []ceps.Option{ceps.WithCache(16 << 20),
			ceps.WithCoalescing(ceps.CoalesceOptions{MaxWait: time.Millisecond})}, 0},
		{"fast", []ceps.Option{ceps.WithCache(16 << 20)}, 8},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			eng := newEngine(t, ds.Graph, append([]ceps.Option{ceps.WithConfig(quickConfig())}, c.opts...)...)
			if c.parts > 0 {
				setPartitions(t, eng, c.parts)
			}
			ctx := context.Background()
			first, err := eng.Do(ctx, set)
			if err != nil {
				t.Fatal(err)
			}
			wantR, wantCombined := scoreBits(first.R), scoreBits([][]float64{first.Combined})
			wantNodes := slices.Clone(first.Subgraph.Nodes)
			scribble(first)
			check := func(label string, res *ceps.Result) {
				t.Helper()
				if !sameRows(res.R, wantR) || !sameRows([][]float64{res.Combined}, wantCombined) {
					t.Fatalf("%s: scores changed after a caller wrote to an earlier result", label)
				}
				if !slices.Equal(res.Subgraph.Nodes, wantNodes) {
					t.Fatalf("%s: subgraph %v, want %v", label, res.Subgraph.Nodes, wantNodes)
				}
				scribble(res)
			}
			for round := 0; round < 2; round++ {
				res, err := eng.Do(ctx, set)
				if err != nil {
					t.Fatal(err)
				}
				check("Do", res)
				results, errs := doSets(ctx, eng, [][]int{set, set}, 2)
				for i, res := range results {
					if errs[i] != nil {
						t.Fatal(errs[i])
					}
					check("concurrent Do", res)
				}
			}
		})
	}
}

// TestCachedVectorsExactAfterMixedWorkload audits the cache itself: after a
// mixed workload whose callers scribble on everything they are handed,
// every cached vector still equals a fresh scalar solve bit for bit. Each
// vector is read back through a single-source query that must be a cache
// hit; the entry count proves the audit covered the whole cache.
func TestCachedVectorsExactAfterMixedWorkload(t *testing.T) {
	ds := smallDataset(t)
	ctx := context.Background()
	sets := [][]int{
		{ds.Repository[0][0], ds.Repository[0][1]},
		{ds.Repository[1][0], ds.Repository[1][1]},
		{ds.Repository[0][0], ds.Repository[2][0], ds.Repository[2][1]},
	}

	t.Run("full-graph", func(t *testing.T) {
		eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()), ceps.WithCache(64<<20),
			ceps.WithCoalescing(ceps.CoalesceOptions{MaxWait: time.Millisecond}),
			ceps.WithBipartite(ds.Papers))
		sources := map[int]bool{}
		first, err := eng.Do(ctx, sets[0])
		if err != nil {
			t.Fatal(err)
		}
		solver := first.Solver
		scribble(first)
		results, errs := doSets(ctx, eng, sets, len(sets))
		for i, res := range results {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			scribble(res)
			for _, q := range sets[i] {
				sources[q] = true
			}
		}
		team, departed := replaceTeam(ds)
		rep, err := eng.ReplaceSubteam(ctx, team, ceps.WithDeparting(departed), ceps.WithReplaceTopN(-1))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range rep.Replacements {
			sources[c.Node] = true // every pool candidate is a walk source
		}
		if _, err := eng.TopCenterPieces(ctx, sets[1], 5); err != nil {
			t.Fatal(err)
		}
		if _, _, err := eng.InferK(ctx, sets[2], 0); err != nil {
			t.Fatal(err)
		}
		st, _ := eng.CacheStats()
		if st.Evictions != 0 || st.Entries != len(sources) {
			t.Fatalf("cache holds %d entries (%d evictions), the workload walked from %d sources",
				st.Entries, st.Evictions, len(sources))
		}
		for src := range sources {
			before, _ := eng.CacheStats()
			res, err := eng.Do(ctx, []int{src})
			if err != nil {
				t.Fatal(err)
			}
			if after, _ := eng.CacheStats(); after.Misses != before.Misses {
				t.Fatalf("source %d was not served from the cache", src)
			}
			want, _, err := solver.ScoresCtx(ctx, src)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRows(res.R, scoreBits([][]float64{want})) {
				t.Fatalf("cached vector of source %d differs from a fresh solve", src)
			}
		}
	})

	t.Run("fast", func(t *testing.T) {
		eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()), ceps.WithCache(64<<20))
		setPartitions(t, eng, 8)
		results, errs := doSets(ctx, eng, sets, len(sets))
		for i, res := range results {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			scribble(res)
		}
		before, _ := eng.CacheStats()
		if before.Evictions != 0 {
			t.Fatalf("%d evictions: the audit would not see every vector", before.Evictions)
		}
		// Re-running the workload reads back every vector it stored.
		rows := 0
		for _, qs := range sets {
			res, err := eng.Do(ctx, qs)
			if err != nil {
				t.Fatal(err)
			}
			for i, wq := range res.WorkQueries {
				want, _, err := res.Solver.ScoresCtx(ctx, wq)
				if err != nil {
					t.Fatal(err)
				}
				if !sameRows(res.R[i:i+1], scoreBits([][]float64{want})) {
					t.Fatalf("set %v: cached vector of source %d differs from a fresh solve", qs, qs[i])
				}
			}
			if res.Fallback == nil {
				rows += len(qs)
			}
		}
		after, _ := eng.CacheStats()
		if after.Misses != before.Misses || rows < before.Entries {
			t.Fatalf("re-run missed %d times and read %d rows of %d cached", after.Misses-before.Misses, rows, before.Entries)
		}
	})
}
