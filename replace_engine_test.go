package ceps_test

import (
	"context"
	"errors"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ceps"
)

func replaceTeam(ds *ceps.Dataset) (team []int, departing int) {
	team = append([]int(nil), ds.Repository[0][:4]...)
	return team, team[1]
}

func TestEngineReplaceSubteam(t *testing.T) {
	ds := smallDataset(t)
	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()),
		ceps.WithBipartite(ds.Papers))
	team, departed := replaceTeam(ds)
	res, err := eng.ReplaceSubteam(context.Background(), team,
		ceps.WithDeparting(departed))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Replacements) == 0 {
		t.Fatal("no candidates ranked")
	}
	if res.PoolStrategy != "two_hop" {
		t.Errorf("pool strategy %q, want two_hop", res.PoolStrategy)
	}
	inTeam := map[int]bool{}
	for _, m := range team {
		inTeam[m] = true
	}
	for i, rep := range res.Replacements {
		if inTeam[rep.Node] {
			t.Errorf("team member %d in the ranking", rep.Node)
		}
		if i > 0 && rep.Score > res.Replacements[i-1].Score {
			t.Errorf("ranking unsorted at %d", i)
		}
	}
	if res.Stages.SolveKernel != "blocked" {
		t.Errorf("candidate panel kernel %q, want blocked", res.Stages.SolveKernel)
	}

	// Options thread through: explicit pool, custom weights, TopN.
	res2, err := eng.ReplaceSubteam(context.Background(), team,
		ceps.WithDeparting(departed),
		ceps.WithCandidatePool(res.Replacements[0].Node, res.Replacements[1].Node),
		ceps.WithScoreWeights(1, 0),
		ceps.WithReplaceTopN(1))
	if err != nil {
		t.Fatal(err)
	}
	if res2.PoolStrategy != "explicit" || res2.PoolSize != 2 || len(res2.Replacements) != 1 {
		t.Fatalf("explicit pool: strategy %q pool %d ranked %d", res2.PoolStrategy, res2.PoolSize, len(res2.Replacements))
	}

	// Densest pool variant answers and identifies itself.
	res3, err := eng.ReplaceSubteam(context.Background(), team,
		ceps.WithDeparting(departed), ceps.WithDensestPool())
	if err != nil {
		t.Fatal(err)
	}
	if res3.PoolStrategy != "densest" {
		t.Errorf("pool strategy %q, want densest", res3.PoolStrategy)
	}

	// Validation errors surface with the right sentinel.
	if _, err := eng.ReplaceSubteam(context.Background(), team); !errors.Is(err, ceps.ErrBadQuery) {
		t.Errorf("missing WithDeparting: err %v, want ErrBadQuery", err)
	}
	if _, err := eng.ReplaceSubteam(context.Background(), team,
		ceps.WithDeparting(departed), ceps.WithScoreWeights(-1, 0)); !errors.Is(err, ceps.ErrBadConfig) {
		t.Errorf("bad weights: err %v, want ErrBadConfig", err)
	}

	// The replace series registered and counted.
	var buf strings.Builder
	if err := eng.Metrics().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	// two_hop counts 3: the successful default-pool call plus the two
	// validation failures above (requests count under their requested
	// strategy even when they fail).
	for _, want := range []string{
		`ceps_replace_total{pool="two_hop"} 3`,
		`ceps_replace_total{pool="explicit"} 1`,
		`ceps_replace_total{pool="densest"} 1`,
		"ceps_replace_duration_seconds_count",
		"ceps_replace_candidates_bucket",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestReplaceSolveRows pins replace traffic's share of the Step 1 kernel
// throughput gauge: a replace feeds ceps_solve_rows_total (its sweeps over
// the full graph its walks run on) as well as the solve seconds, so a
// replace-only engine reports a positive rows/s rather than 0.
func TestReplaceSolveRows(t *testing.T) {
	ds := smallDataset(t)
	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()))
	team, departed := replaceTeam(ds)
	res, err := eng.ReplaceSubteam(context.Background(), team, ceps.WithDeparting(departed))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages.SolveSweeps == 0 {
		t.Fatal("a cold replace ran no sweeps")
	}
	text := scrape(t, eng)
	series := func(name string) float64 {
		for _, line := range strings.Split(text, "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				return f
			}
		}
		t.Fatalf("exposition lacks %s", name)
		return 0
	}
	if got, want := series("ceps_solve_rows_total"), float64(res.Stages.SolveSweeps*ds.Graph.N()); got != want {
		t.Errorf("ceps_solve_rows_total = %v, want SolveSweeps × N = %v", got, want)
	}
	if got := series("ceps_solve_rows_per_second"); !(got > 0) {
		t.Errorf("ceps_solve_rows_per_second = %v after a replace, want > 0", got)
	}
}

// TestReplaceBitIdentical is the golden serving contract for the new query
// type: the ranked nodes and every score component are Float64bits-equal
// across a plain engine, a cached engine, a warmed cached engine, and a
// cached+coalescing engine.
func TestReplaceBitIdentical(t *testing.T) {
	ds := smallDataset(t)
	team, departed := replaceTeam(ds)
	run := func(opts ...ceps.Option) []ceps.Replacement {
		t.Helper()
		opts = append(opts, ceps.WithConfig(quickConfig()), ceps.WithBipartite(ds.Papers))
		eng := newEngine(t, ds.Graph, opts...)
		res, err := eng.ReplaceSubteam(context.Background(), team,
			ceps.WithDeparting(departed), ceps.WithReplaceTopN(-1))
		if err != nil {
			t.Fatal(err)
		}
		// Second call on the same engine: all candidate vectors now come
		// from the cache (when one exists); must not move a single bit.
		res2, err := eng.ReplaceSubteam(context.Background(), team,
			ceps.WithDeparting(departed), ceps.WithReplaceTopN(-1))
		if err != nil {
			t.Fatal(err)
		}
		compareReplacements(t, "cold vs warm", res.Replacements, res2.Replacements)
		return res.Replacements
	}
	plain := run()
	cached := run(ceps.WithCache(16 << 20))
	coalesced := run(ceps.WithCache(16<<20),
		ceps.WithCoalescing(ceps.CoalesceOptions{MaxWait: time.Millisecond}))
	compareReplacements(t, "plain vs cached", plain, cached)
	compareReplacements(t, "plain vs coalesced", plain, coalesced)
}

func compareReplacements(t *testing.T, label string, a, b []ceps.Replacement) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: ranking lengths %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Node != b[i].Node ||
			math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) ||
			math.Float64bits(a[i].RWRProximity) != math.Float64bits(b[i].RWRProximity) ||
			math.Float64bits(a[i].Overlap) != math.Float64bits(b[i].Overlap) {
			t.Fatalf("%s: rank %d differs: %+v vs %+v", label, i, a[i], b[i])
		}
	}
}

// TestReplaceReconfigureHammer races ReplaceSubteam against Reconfigure
// flipping the walk parameters — the same concurrency contract every other
// query type has: each call answers consistently under the snapshot it
// started with, and nothing tears under -race.
func TestReplaceReconfigureHammer(t *testing.T) {
	ds := smallDataset(t)
	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()),
		ceps.WithCache(16<<20), ceps.WithBipartite(ds.Papers))
	team, departed := replaceTeam(ds)
	cfgA := quickConfig()
	cfgB := quickConfig()
	cfgB.RWR.Iterations = 30
	stop := make(chan struct{})
	var reconf sync.WaitGroup
	reconf.Add(1)
	go func() {
		defer reconf.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			cfg := cfgA
			if i%2 == 1 {
				cfg = cfgB
			}
			if err := eng.Reconfigure(cfg); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := 0; i < 25; i++ {
				res, err := eng.ReplaceSubteam(context.Background(), team,
					ceps.WithDeparting(departed))
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Replacements) == 0 {
					t.Error("empty ranking under reconfigure hammer")
					return
				}
			}
		}()
	}
	workers.Wait()
	close(stop)
	reconf.Wait()
}
