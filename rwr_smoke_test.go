package ceps_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"ceps"
	"ceps/internal/experiments"
	"ceps/internal/extract"
	"ceps/internal/rwr"
	"ceps/internal/score"
)

// kernelPoint is one cell of the Step-1 kernel sweep: Q random-walk solves
// run as Q sequential scalar power iterations versus one fused blocked
// solve advancing all Q walks per sweep.
type kernelPoint struct {
	Q                 int
	ScalarNsPerQuery  int64
	BlockedNsPerQuery int64
	Speedup           float64 // scalar / blocked per-query time
}

// kernelSweep times, for each query count Q, Q sequential ScoresSetCtx
// solves against one ScoresSetBlockedCtx call, keeping the best of reps
// cold runs (min-of-reps is robust against CPU-frequency and scheduling
// outliers where a mean is not). Before timing it asserts that the two
// kernels give bit-identical score vectors and diagnostics on the largest
// query set: the speedup means something only because the answers are
// exactly equal.
func kernelSweep(t *testing.T, s *experiments.Setup, queryCounts []int, reps int) []kernelPoint {
	t.Helper()
	solver, err := rwr.NewSolver(s.Dataset.Graph, s.Base.RWR)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct query nodes drawn from the whole graph: the kernel measures
	// Step 1 alone, so any node is a valid source.
	n, maxQ := s.Dataset.Graph.N(), slices.Max(queryCounts)
	rng := rand.New(rand.NewSource(s.Seed*1_000_003 + 9))
	seen := make(map[int]bool, maxQ)
	nodes := make([]int, 0, maxQ)
	for len(nodes) < maxQ {
		v := rng.Intn(n)
		if !seen[v] {
			seen[v] = true
			nodes = append(nodes, v)
		}
	}

	ctx := context.Background()
	wantR, wantDiags, err := solver.ScoresSetCtx(ctx, nodes)
	if err != nil {
		t.Fatal(err)
	}
	gotR, gotDiags, err := solver.ScoresSetBlockedCtx(ctx, nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantR {
		if gotDiags[i] != wantDiags[i] {
			t.Fatalf("blocked kernel diagnostics differ for query %d: %+v vs %+v", nodes[i], gotDiags[i], wantDiags[i])
		}
		for j := range wantR[i] {
			if math.Float64bits(gotR[i][j]) != math.Float64bits(wantR[i][j]) {
				t.Fatalf("blocked kernel not bit-identical at query %d node %d: %v vs %v", nodes[i], j, gotR[i][j], wantR[i][j])
			}
		}
	}

	best := func(run func() error) int64 {
		var fastest time.Duration
		for r := 0; r < reps; r++ {
			start := time.Now()
			if err := run(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); r == 0 || d < fastest {
				fastest = d
			}
		}
		return fastest.Nanoseconds()
	}
	var out []kernelPoint
	for _, q := range queryCounts {
		queries := nodes[:q]
		p := kernelPoint{Q: q}
		p.ScalarNsPerQuery = best(func() error {
			_, _, err := solver.ScoresSetCtx(ctx, queries)
			return err
		}) / int64(q)
		p.BlockedNsPerQuery = best(func() error {
			_, _, err := solver.ScoresSetBlockedCtx(ctx, queries, 1)
			return err
		}) / int64(q)
		if p.BlockedNsPerQuery > 0 {
			p.Speedup = float64(p.ScalarNsPerQuery) / float64(p.BlockedNsPerQuery)
		}
		out = append(out, p)
	}
	return out
}

// TestRWRKernelSmoke sweeps the Step-1 kernel grid (Q sequential scalar
// solves against one blocked solve) and enforces the acceptance floor: one
// blocked Q=8 solve must beat 8 sequential scalar solves, with a 2x
// target. `make check` runs it with RWR_KERNEL_REPS=2 as a quick smoke.
// Bit-identity of the two kernels is asserted inside kernelSweep before
// anything is timed.
func TestRWRKernelSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped with -short")
	}
	s, err := experiments.NewSetup(0.2, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	reps := 4
	if env := os.Getenv("RWR_KERNEL_REPS"); env != "" {
		reps, err = strconv.Atoi(env)
		if err != nil {
			t.Fatalf("RWR_KERNEL_REPS=%q: %v", env, err)
		}
	}

	pts := kernelSweep(t, s, []int{1, 4, 8, 16}, reps)
	var sb strings.Builder
	var q8 float64
	fmt.Fprintf(&sb, "%4s %14s %14s %9s\n", "Q", "scalar(µs/q)", "blocked(µs/q)", "speedup")
	for _, p := range pts {
		fmt.Fprintf(&sb, "%4d %14.1f %14.1f %8.1fx\n", p.Q,
			float64(p.ScalarNsPerQuery)/1000, float64(p.BlockedNsPerQuery)/1000, p.Speedup)
		if p.Q == 8 {
			q8 = p.Speedup
		}
	}
	t.Logf("kernel sweep (reps=%d, %d nodes, m=%d):\n%s", reps, s.Dataset.Graph.N(), s.Base.RWR.Iterations, sb.String())

	if q8 <= 1 {
		t.Errorf("blocked Q=8 solve is not faster than 8 scalar solves (speedup %.2fx)", q8)
	} else if q8 < 2 {
		t.Errorf("blocked Q=8 speedup %.2fx, want >= 2x", q8)
	}
}

// TestEngineBlockedSolvesBitIdenticalAndMetered pins the engine-level
// contract of the blocked Step 1 kernel: at Q=3 and at Q=1 (a width-1
// panel) a default engine returns score vectors and diagnostics
// bit-identical to the scalar reference ScoresSetCtx and the subgraph
// EXTRACT finds on them, reports the kernel it used in Stages.SolveKernel,
// and meters its solves into the ceps_solves_total{kernel=...} and
// ceps_solve_rows_total series.
func TestEngineBlockedSolvesBitIdenticalAndMetered(t *testing.T) {
	ds := smallDataset(t)
	cfg := quickConfig()
	eng := newEngine(t, ds.Graph, ceps.WithConfig(cfg))
	solver, err := rwr.NewSolver(ds.Graph, cfg.RWR)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, queries := range [][]int{
		{ds.Repository[0][0], ds.Repository[1][0], ds.Repository[2][0]},
		{ds.Repository[0][0]},
	} {
		res, err := eng.Do(context.Background(), queries)
		if err != nil {
			t.Fatal(err)
		}
		wantR, wantD, err := solver.ScoresSetCtx(ctx, queries)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stages.SolveKernel != "blocked" {
			t.Errorf("Q=%d SolveKernel = %q, want blocked", len(queries), res.Stages.SolveKernel)
		}
		sweeps := 0
		for i, d := range wantD {
			sweeps += d.Sweeps
			if res.RWRDiagnostics[i] != d {
				t.Errorf("Q=%d diagnostics[%d] = %+v, scalar %+v", len(queries), i, res.RWRDiagnostics[i], d)
			}
		}
		if sweeps <= 0 || res.Stages.SolveSweeps != sweeps {
			t.Errorf("Q=%d SolveSweeps blocked %d vs scalar %d, want equal and positive",
				len(queries), res.Stages.SolveSweeps, sweeps)
		}
		for i := range wantR {
			for j := range wantR[i] {
				if math.Float64bits(res.R[i][j]) != math.Float64bits(wantR[i][j]) {
					t.Fatalf("Q=%d score R[%d][%d] differs between kernels: %v vs %v", len(queries), i, j, res.R[i][j], wantR[i][j])
				}
			}
		}
		combined, err := score.CombineNodes(wantR, cfg.Combiner(len(queries)))
		if err != nil {
			t.Fatal(err)
		}
		want, err := extract.ExtractCtx(ctx, extract.Input{
			G: ds.Graph, Queries: queries, R: wantR, Combined: combined,
			K: cfg.EffectiveK(len(queries)), Budget: cfg.Budget, MaxPathLen: cfg.MaxPathLen,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Subgraph.Nodes) != len(want.Subgraph.Nodes) {
			t.Fatalf("Q=%d subgraph sizes differ: %d vs %d", len(queries), len(res.Subgraph.Nodes), len(want.Subgraph.Nodes))
		}
		for i := range want.Subgraph.Nodes {
			if res.Subgraph.Nodes[i] != want.Subgraph.Nodes[i] {
				t.Fatalf("Q=%d subgraph node %d differs: %d vs %d", len(queries), i, res.Subgraph.Nodes[i], want.Subgraph.Nodes[i])
			}
		}
	}

	text := scrape(t, eng)
	if !strings.Contains(text, `ceps_solves_total{kernel="blocked"} 2`) {
		t.Errorf("exposition missing ceps_solves_total{kernel=\"blocked\"} 2\n%s", text)
	}
	if !strings.Contains(text, "ceps_solve_rows_total") || !strings.Contains(text, "ceps_solve_rows_per_second") {
		t.Errorf("exposition missing solve throughput series\n%s", text)
	}
}
