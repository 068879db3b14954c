package ceps_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ceps"
	"ceps/internal/obs"
)

// scrape renders the engine's registry and validates the exposition
// format, returning the text for substring assertions.
func scrape(t *testing.T, eng *ceps.Engine) string {
	t.Helper()
	var buf bytes.Buffer
	if err := eng.Metrics().WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if _, _, err := obs.ValidateExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("malformed exposition: %v\n%s", err, buf.String())
	}
	return buf.String()
}

func TestEngineStageTimingsAndMetrics(t *testing.T) {
	ds := smallDataset(t)
	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()), ceps.WithCache(8<<20), ceps.WithWorkers(2))
	queries := []int{ds.Repository[0][0], ds.Repository[1][0]}

	res, err := eng.Do(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages.Solve <= 0 {
		t.Errorf("cold query Stages.Solve = %v, want > 0", res.Stages.Solve)
	}
	if res.Stages.Extract <= 0 {
		t.Errorf("Stages.Extract = %v, want > 0", res.Stages.Extract)
	}
	if res.Stages.Partition != 0 {
		t.Errorf("full-graph query Stages.Partition = %v, want 0", res.Stages.Partition)
	}
	if res.Stages.CacheMisses != len(queries) || res.Stages.CacheHits != 0 {
		t.Errorf("cold query cache stats = %d hits / %d misses, want 0/%d",
			res.Stages.CacheHits, res.Stages.CacheMisses, len(queries))
	}

	warm, err := eng.Do(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stages.CacheHits != len(queries) || warm.Stages.CacheMisses != 0 {
		t.Errorf("warm query cache stats = %d hits / %d misses, want %d/0",
			warm.Stages.CacheHits, warm.Stages.CacheMisses, len(queries))
	}

	// A bad query lands in the error-kind series without panicking. It runs
	// before fast mode so it is counted on the full path.
	if _, err := eng.Do(context.Background(), nil); err == nil {
		t.Fatal("empty query should fail")
	}

	setPartitions(t, eng, 4)
	fast, err := eng.Do(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Fallback == nil && fast.Stages.Partition <= 0 {
		t.Errorf("fast query Stages.Partition = %v, want > 0", fast.Stages.Partition)
	}

	text := scrape(t, eng)
	fastSeries := `ceps_queries_total{path="fast"} 1`
	if fast.Fallback != nil {
		fastSeries = `ceps_queries_total{path="fast_fallback"} 1`
	}
	for _, want := range []string{
		fastSeries,
		// 2 successful full-graph queries + the failed empty one (failures
		// are counted on the path that rejected them).
		`ceps_queries_total{path="full"} 3`,
		`ceps_query_errors_total{kind="bad_query"} 1`,
		`ceps_stage_duration_seconds_bucket{stage="solve",le="+Inf"}`,
		`ceps_query_duration_seconds_count 4`,
		`ceps_cache_hits_total`,
		`ceps_cache_bytes_budget 8.388608e+06`,
		`ceps_inflight_queries 0`,
		`ceps_workers 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
}

func TestEngineSlowQueryLog(t *testing.T) {
	ds := smallDataset(t)
	var buf bytes.Buffer
	// Threshold 0 logs every query, making the test deterministic.
	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()), ceps.WithCache(8<<20),
		ceps.WithSlowQueryLog(&buf, 0))
	queries := []int{ds.Repository[0][0], ds.Repository[1][0]}

	if _, err := eng.Do(context.Background(), queries); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Do(context.Background(), nil); err == nil {
		t.Fatal("empty query should fail")
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("slow log has %d lines, want 2:\n%s", len(lines), buf.String())
	}

	var ok ceps.SlowQueryEntry
	if err := json.Unmarshal([]byte(lines[0]), &ok); err != nil {
		t.Fatalf("slow log line is not JSON: %v\n%s", err, lines[0])
	}
	if ok.Path != "full" {
		t.Errorf("path = %q, want full", ok.Path)
	}
	if len(ok.Queries) != 2 || ok.Queries[0] != queries[0] {
		t.Errorf("queries = %v, want %v", ok.Queries, queries)
	}
	if ok.ElapsedMS <= 0 || ok.SolveMS <= 0 {
		t.Errorf("elapsed_ms = %v, solve_ms = %v, want > 0", ok.ElapsedMS, ok.SolveMS)
	}
	if ok.CacheMisses != 2 {
		t.Errorf("cache_misses = %d, want 2", ok.CacheMisses)
	}
	if ok.Error != "" {
		t.Errorf("successful query logged error %q", ok.Error)
	}
	// artifact_hits is always-present (no omitempty): dashboards
	// difference it against cache_misses even when it is zero.
	if !strings.Contains(lines[0], `"artifact_hits"`) {
		t.Errorf("slow log line missing artifact_hits: %s", lines[0])
	}

	var failed ceps.SlowQueryEntry
	if err := json.Unmarshal([]byte(lines[1]), &failed); err != nil {
		t.Fatalf("slow log line is not JSON: %v\n%s", err, lines[1])
	}
	if failed.Error == "" {
		t.Error("failed query should carry its error in the log entry")
	}

	// Replace requests log too: path "replace", the team as the queries,
	// stage attribution on success and the error on failure.
	buf.Reset()
	team, departed := replaceTeam(ds)
	if _, err := eng.ReplaceSubteam(context.Background(), team, ceps.WithDeparting(departed)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ReplaceSubteam(context.Background(), team); err == nil {
		t.Fatal("replace without departing members should fail")
	}
	lines = strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("slow log has %d replace lines, want 2:\n%s", len(lines), buf.String())
	}
	var rep, repFailed ceps.SlowQueryEntry
	if err := json.Unmarshal([]byte(lines[0]), &rep); err != nil {
		t.Fatalf("slow log line is not JSON: %v\n%s", err, lines[0])
	}
	if rep.Path != "replace" || fmt.Sprint(rep.Queries) != fmt.Sprint(team) {
		t.Errorf("replace entry path %q queries %v, want replace %v", rep.Path, rep.Queries, team)
	}
	if rep.SolveMS <= 0 || rep.CacheMisses == 0 || rep.SolveSweeps == 0 || rep.SolveKernel != "blocked" || rep.Error != "" {
		t.Errorf("replace entry lacks its solve attribution: %+v", rep)
	}
	if err := json.Unmarshal([]byte(lines[1]), &repFailed); err != nil {
		t.Fatalf("slow log line is not JSON: %v\n%s", err, lines[1])
	}
	if repFailed.Path != "replace" || repFailed.Error == "" {
		t.Errorf("failed replace entry: %+v", repFailed)
	}

	// A high threshold suppresses logging entirely.
	var quiet bytes.Buffer
	eng2 := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()),
		ceps.WithSlowQueryLog(&quiet, time.Hour))
	if _, err := eng2.Do(context.Background(), queries); err != nil {
		t.Fatal(err)
	}
	if quiet.Len() != 0 {
		t.Errorf("sub-threshold query was logged: %s", quiet.String())
	}
}

// TestReconfigurePurgeRace hammers Reconfigure (which purges the score
// cache) against concurrent cold-miss queries. The generation guard in
// ScoreCache must drop stores from flights that began before a purge;
// without it, leaders finishing after a purge re-insert vectors whose key
// space is dead, leaving unreclaimable bytes in the budget. After the dust
// settles and a final purge lands, the cache must be truly empty. Run with
// -race: the interleavings this generates are the point.
func TestReconfigurePurgeRace(t *testing.T) {
	ds := smallDataset(t)
	base := quickConfig()
	eng := newEngine(t, ds.Graph, ceps.WithConfig(base), ceps.WithCache(32<<20), ceps.WithWorkers(4))

	alt := base
	alt.RWR.C = 0.7

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

	// Queriers walk distinct node pairs so every query is a cold miss for
	// whichever config snapshot it runs under — each one opens a flight the
	// churner's purges can race.
	n := ds.Graph.N()
	var queriers sync.WaitGroup
	for w := 0; w < 4; w++ {
		queriers.Add(1)
		go func(w int) {
			defer queriers.Done()
			for i := 0; i < 12; i++ {
				a := (w*31 + i*7) % n
				b := (a + 1 + i) % n
				if a == b {
					b = (b + 1) % n
				}
				if _, err := eng.Do(context.Background(), []int{a, b}); err != nil {
					fail <- err
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
		t.Fatal(err)
	}

	// Final purge with nothing in flight: every byte must be reclaimed. A
	// stale post-purge store from the hammer would have already tripped the
	// generation guard; this asserts the end state is clean either way.
	final := base
	final.RWR.C = 0.33
	if err := eng.Reconfigure(final); err != nil {
		t.Fatal(err)
	}
	stats, ok := eng.CacheStats()
	if !ok {
		t.Fatal("engine should have a cache")
	}
	if stats.BytesUsed != 0 || stats.Entries != 0 {
		t.Fatalf("after final purge: %d entries, %d bytes still accounted (stale post-purge stores leaked)",
			stats.Entries, stats.BytesUsed)
	}
	if stats.Invalidations == 0 {
		t.Error("hammer should have recorded purges")
	}

	// The cache must still work after the storm.
	res, err := eng.Do(context.Background(), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages.CacheMisses == 0 {
		t.Error("post-purge query should miss the empty cache")
	}
}
