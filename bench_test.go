// Benchmarks regenerating every table and figure of the paper's evaluation
// (§7) at a CI-friendly scale, plus ablation benches for the design choices
// DESIGN.md calls out. Run the paper-scale sweep with cmd/cepsbench.
//
// Each figure benchmark reports the figure's headline quantity through
// b.ReportMetric so `go test -bench` output doubles as a compact results
// table; the full rows/series are printed by `go run ./cmd/cepsbench`.
package ceps_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"ceps"
	"ceps/internal/core"
	"ceps/internal/experiments"
	"ceps/internal/extract"
	"ceps/internal/partition"
	"ceps/internal/rwr"
	"ceps/internal/score"
)

var (
	benchOnce  sync.Once
	benchSetup *experiments.Setup
)

// setup builds one shared ~800-author dataset for all benchmarks.
func setup(b *testing.B) *experiments.Setup {
	b.Helper()
	benchOnce.Do(func() {
		s, err := experiments.NewSetup(0.2, 7, 2)
		if err != nil {
			panic(err)
		}
		benchSetup = s
	})
	return benchSetup
}

// BenchmarkFig2DeliveredCurrentVsCePS regenerates the Fig. 2 comparison:
// order sensitivity and connection strength of the delivered-current
// baseline vs CePS AND queries (budget 4, Q = 2).
func BenchmarkFig2DeliveredCurrentVsCePS(b *testing.B) {
	s := setup(b)
	var last *experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(s, 4)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.CurrentOrderOverlap, "baseline-order-overlap")
	b.ReportMetric(last.CePSOrderOverlap, "ceps-order-overlap")
	b.ReportMetric(last.CePSStrength, "ceps-strength")
	b.ReportMetric(last.CurrentStrength, "baseline-strength")
}

// BenchmarkFig4aNRatioVsBudget regenerates Fig. 4(a): mean NRatio as the
// budget grows, per query count.
func BenchmarkFig4aNRatioVsBudget(b *testing.B) {
	s := setup(b)
	var pts []experiments.Fig4Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Fig4(s, []int{2, 4}, []int{10, 20, 50})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		if p.Budget == 50 && p.Q == 2 {
			b.ReportMetric(p.NRatio, "nratio-q2-b50")
		}
	}
}

// BenchmarkFig4bERatioVsBudget regenerates Fig. 4(b): mean ERatio as the
// budget grows, per query count.
func BenchmarkFig4bERatioVsBudget(b *testing.B) {
	s := setup(b)
	var pts []experiments.Fig4Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Fig4(s, []int{2, 4}, []int{10, 20, 50})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		if p.Budget == 50 && p.Q == 2 {
			b.ReportMetric(p.ERatio, "eratio-q2-b50")
		}
	}
}

// BenchmarkFig5NormalizationSweep regenerates Fig. 5: the α parametric
// study of the degree-penalized normalization (§7.3); the reported metric
// is the relative NRatio gain of α = 0.5 over α = 0.
func BenchmarkFig5NormalizationSweep(b *testing.B) {
	s := setup(b)
	var pts []experiments.Fig5Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Fig5(s, []int{2}, []float64{0, 0.5, 1}, 20)
		if err != nil {
			b.Fatal(err)
		}
	}
	var zero, half experiments.Fig5Point
	for _, p := range pts {
		if p.Alpha == 0 {
			zero = p
		}
		if p.Alpha == 0.5 {
			half = p
		}
	}
	if zero.NRatio > 0 {
		b.ReportMetric(100*(half.NRatio-zero.NRatio)/zero.NRatio, "nratio-gain-pct")
	}
}

// BenchmarkFig6SpeedupQuality regenerates Fig. 6(a): RelRatio vs response
// time across partition counts.
func BenchmarkFig6SpeedupQuality(b *testing.B) {
	s := setup(b)
	var pts []experiments.Fig6Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Fig6(s, []int{2}, []int{1, 4, 16}, 20)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		if p.Partitions == 16 {
			b.ReportMetric(p.RelRatio, "relratio-p16")
		}
	}
}

// BenchmarkFig6ResponseTimeVsPartitions regenerates Fig. 6(b): mean
// response time as the partition count grows.
func BenchmarkFig6ResponseTimeVsPartitions(b *testing.B) {
	s := setup(b)
	var pts []experiments.Fig6Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Fig6(s, []int{2}, []int{1, 4, 16}, 20)
		if err != nil {
			b.Fatal(err)
		}
	}
	var full, p16 float64
	for _, p := range pts {
		if p.Partitions == 1 {
			full = float64(p.Response.Microseconds()) / 1000
		}
		if p.Partitions == 16 {
			p16 = float64(p.Response.Microseconds()) / 1000
		}
	}
	b.ReportMetric(full, "full-ms")
	b.ReportMetric(p16, "fast-p16-ms")
}

// BenchmarkHeadlineSpeedup regenerates the headline claim: Fast CePS
// response-time speedup and retained quality at the operating point.
func BenchmarkHeadlineSpeedup(b *testing.B) {
	s := setup(b)
	var pts []experiments.SpeedupPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Speedup(s, []int{2}, 16, 20)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].Speedup, "speedup-x")
	b.ReportMetric(pts[0].RelRatio, "relratio")
}

// BenchmarkSkewness regenerates the §6 skewness observation that motivates
// pre-partitioning.
func BenchmarkSkewness(b *testing.B) {
	s := setup(b)
	var pts []experiments.SkewPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Skew(s, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	var gini float64
	for _, p := range pts {
		gini += p.Gini
	}
	b.ReportMetric(gini/float64(len(pts)), "mean-gini")
}

// BenchmarkInjection regenerates the §8 Future Work 2 injection test:
// recovery rate of a planted center-piece.
func BenchmarkInjection(b *testing.B) {
	s := setup(b)
	var pts []experiments.InjectPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Inject(s, 2, 10, []float64{5, 0.5})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].Recovered, "strong-recovery")
	b.ReportMetric(pts[1].Recovered, "weak-recovery")
}

// BenchmarkRetrievalPrecision regenerates the §8 Future Work 2 retrieval
// evaluation: precision of CePS as a community-member retriever.
func BenchmarkRetrievalPrecision(b *testing.B) {
	s := setup(b)
	var pts []experiments.RetrievalPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Retrieval(s, 2, []int{10})
		if err != nil {
			b.Fatal(err)
		}
	}
	var mean float64
	for _, p := range pts {
		mean += p.Precision
	}
	b.ReportMetric(mean/float64(len(pts)), "mean-precision")
}

// BenchmarkSteinerComparison regenerates the §2 argument: at matched node
// counts, CePS captures more goodness and avoids hub nodes relative to the
// Steiner-tree alternative.
func BenchmarkSteinerComparison(b *testing.B) {
	s := setup(b)
	var pt *experiments.SteinerPoint
	for i := 0; i < b.N; i++ {
		var err error
		pt, err = experiments.Steiner(s, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pt.CePSGoodness, "ceps-goodness")
	b.ReportMetric(pt.SteinerGoodness, "steiner-goodness")
}

// BenchmarkInferK measures the auto-k inference (§8 Future Work 3).
func BenchmarkInferK(b *testing.B) {
	s := setup(b)
	queries := []int{
		s.Dataset.Repository[0][0], s.Dataset.Repository[0][1],
		s.Dataset.Repository[1][0], s.Dataset.Repository[1][1],
	}
	var k int
	for i := 0; i < b.N; i++ {
		var err error
		k, _, err = core.InferK(s.Dataset.Graph, queries, s.Base, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(k), "inferred-k")
}

// BenchmarkAblationPrecomputedVsIterative compares §6's precomputed-inverse
// strategy against the m=50 power iteration for online queries.
func BenchmarkAblationPrecomputedVsIterative(b *testing.B) {
	small, err := experiments.NewSetup(0.05, 13, 1)
	if err != nil {
		b.Fatal(err)
	}
	solver, err := rwr.NewSolver(small.Dataset.Graph, small.Base.RWR)
	if err != nil {
		b.Fatal(err)
	}
	q := small.Dataset.Repository[0][0]
	b.Run("iterative", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solver.Scores(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("precomputed", func(b *testing.B) {
		pre, err := rwr.NewPreSolver(solver, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pre.Scores(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Component and ablation benches -----------------------------------

// BenchmarkComponentRWR measures Step 1 alone: one RWR solve at the
// paper's m = 50.
func BenchmarkComponentRWR(b *testing.B) {
	s := setup(b)
	solver, err := rwr.NewSolver(s.Dataset.Graph, s.Base.RWR)
	if err != nil {
		b.Fatal(err)
	}
	q := s.Dataset.Repository[0][0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Scores(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRWRKernel measures Step 1's two execution strategies across the
// kernel grid: Q sequential per-query power iterations (scalar) vs one
// fused blocked solve advancing all Q walks per sweep (blocked). The
// blocked kernel is bit-identical to the scalar one (see internal/rwr
// blocked tests), so the grid is a pure throughput comparison.
func BenchmarkRWRKernel(b *testing.B) {
	s := setup(b)
	solver, err := rwr.NewSolver(s.Dataset.Graph, s.Base.RWR)
	if err != nil {
		b.Fatal(err)
	}
	// 16 distinct, evenly spread query nodes: the kernel measures Step 1
	// alone, so any node is a valid source.
	n := s.Dataset.Graph.N()
	nodes := make([]int, 16)
	for i := range nodes {
		nodes[i] = i * (n / len(nodes))
	}
	ctx := context.Background()
	for _, q := range []int{1, 4, 8, 16} {
		queries := nodes[:q]
		b.Run(fmt.Sprintf("scalar/q=%d", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := solver.ScoresSetCtx(ctx, queries); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("blocked/q=%d", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := solver.ScoresSetBlockedCtx(ctx, queries, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkComponentExtract measures Step 3 alone on precomputed scores.
func BenchmarkComponentExtract(b *testing.B) {
	s := setup(b)
	queries := []int{s.Dataset.Repository[0][0], s.Dataset.Repository[1][0]}
	solver, err := rwr.NewSolver(s.Dataset.Graph, s.Base.RWR)
	if err != nil {
		b.Fatal(err)
	}
	R, err := solver.ScoresSet(queries)
	if err != nil {
		b.Fatal(err)
	}
	combined, err := score.CombineNodes(R, score.AND{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := extract.Extract(extract.Input{
			G: s.Dataset.Graph, Queries: queries, R: R, Combined: combined,
			K: 2, Budget: 20,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComponentPartition measures the one-time Table 5 Step 0 cost.
func BenchmarkComponentPartition(b *testing.B) {
	s := setup(b)
	for i := 0; i < b.N; i++ {
		if _, err := partition.KWay(s.Dataset.Graph, 16, partition.Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationIterativeVsExactRWR quantifies the m = 50 power
// iteration against the dense closed form (Eq. 12): the reported metric is
// the max absolute score error.
func BenchmarkAblationIterativeVsExactRWR(b *testing.B) {
	small, err := experiments.NewSetup(0.02, 11, 1) // dense solve is O(n³)
	if err != nil {
		b.Fatal(err)
	}
	solver, err := rwr.NewSolver(small.Dataset.Graph, small.Base.RWR)
	if err != nil {
		b.Fatal(err)
	}
	q := small.Dataset.Repository[0][0]
	exact, err := solver.ExactScores(q)
	if err != nil {
		b.Fatal(err)
	}
	var maxErr float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter, err := solver.Scores(q)
		if err != nil {
			b.Fatal(err)
		}
		maxErr = 0
		for j := range iter {
			if d := iter[j] - exact[j]; d > maxErr {
				maxErr = d
			} else if -d > maxErr {
				maxErr = -d
			}
		}
	}
	b.ReportMetric(maxErr, "max-abs-err")
}

// BenchmarkAblationSoftANDRecursion compares the Eq. 9 recursion against
// 2^Q enumeration for the meeting probability.
func BenchmarkAblationSoftANDRecursion(b *testing.B) {
	p := []float64{0.1, 0.4, 0.35, 0.8, 0.05, 0.6, 0.22, 0.9}
	b.Run("recursion", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			score.AtLeastK(p, 4)
		}
	})
	b.Run("bruteforce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bruteAtLeast(p, 4)
		}
	})
}

func bruteAtLeast(p []float64, k int) float64 {
	var total float64
	for mask := 0; mask < 1<<len(p); mask++ {
		prob := 1.0
		count := 0
		for i := range p {
			if mask&(1<<i) != 0 {
				prob *= p[i]
				count++
			} else {
				prob *= 1 - p[i]
			}
		}
		if count >= k {
			total += prob
		}
	}
	return total
}

// BenchmarkAblationQueryTypes compares end-to-end response time across
// query types (AND vs K_softAND vs OR) on four queries.
func BenchmarkAblationQueryTypes(b *testing.B) {
	s := setup(b)
	queries := []int{
		s.Dataset.Repository[0][0], s.Dataset.Repository[0][1],
		s.Dataset.Repository[1][0], s.Dataset.Repository[1][1],
	}
	for _, k := range []int{0, 2, 1} { // AND, 2_softAND, OR
		cfg := s.Base
		cfg.K = k
		name := cfg.QueryTypeName(len(queries))
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.CePS(s.Dataset.Graph, queries, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPathSharing quantifies §5's path-sharing discount: how
// much captured goodness the "length = new nodes" rule buys over charging
// every path node.
func BenchmarkAblationPathSharing(b *testing.B) {
	s := setup(b)
	queries := []int{s.Dataset.Repository[0][0], s.Dataset.Repository[1][0], s.Dataset.Repository[2][0]}
	solver, err := rwr.NewSolver(s.Dataset.Graph, s.Base.RWR)
	if err != nil {
		b.Fatal(err)
	}
	R, err := solver.ScoresSet(queries)
	if err != nil {
		b.Fatal(err)
	}
	combined, err := score.CombineNodes(R, score.AND{})
	if err != nil {
		b.Fatal(err)
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		in := extract.Input{G: s.Dataset.Graph, Queries: queries, R: R, Combined: combined, K: 3, Budget: 20}
		rw, err := extract.Extract(in)
		if err != nil {
			b.Fatal(err)
		}
		in.NoSharing = true
		ro, err := extract.Extract(in)
		if err != nil {
			b.Fatal(err)
		}
		with, without = rw.ExtractedGoodness, ro.ExtractedGoodness
	}
	if without > 0 {
		b.ReportMetric(with/without, "sharing-goodness-ratio")
	}
}

// BenchmarkEngineQuery measures the public API end-to-end (the quickstart
// path a downstream user hits).
func BenchmarkEngineQuery(b *testing.B) {
	s := setup(b)
	eng, err := ceps.NewEngine(s.Dataset.Graph)
	if err != nil {
		b.Fatal(err)
	}
	q1, q2 := s.Dataset.Repository[0][0], s.Dataset.Repository[1][0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Do(context.Background(), []int{q1, q2}); err != nil {
			b.Fatal(err)
		}
	}
}

// overlapQuerySets builds count query sets of 4 members each from a
// sliding window over repository heads with stride 2, so consecutive sets
// share 50% of their members — the serving workload the score cache is
// designed for (recurring team members across requests).
func overlapQuerySets(s *experiments.Setup, count int) [][]int {
	var pool []int
	for _, repo := range s.Dataset.Repository {
		pool = append(pool, repo[0], repo[1])
	}
	sets := make([][]int, 0, count)
	for i := 0; len(sets) < count; i += 2 {
		set := make([]int, 4)
		for j := range set {
			set[j] = pool[(i+j)%len(pool)]
		}
		sets = append(sets, set)
	}
	return sets
}

// BenchmarkServingOverlap is the serving-layer headline: answering a
// batch of 50%-overlapping query sets cold and sequentially (no cache)
// vs through the batch API with a shared score cache. The warm sub-bench
// reports the cache hit rate via b.ReportMetric.
func BenchmarkServingOverlap(b *testing.B) {
	s := setup(b)
	sets := overlapQuerySets(s, 8)

	b.Run("cold-sequential", func(b *testing.B) {
		eng, err := ceps.NewEngine(s.Dataset.Graph)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, qs := range sets {
				if _, err := eng.Do(context.Background(), qs); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("warm-batch", func(b *testing.B) {
		eng, err := ceps.NewEngine(s.Dataset.Graph, ceps.WithCache(64<<20))
		if err != nil {
			b.Fatal(err)
		}
		batch := func() {
			_, errs := doSets(context.Background(), eng, sets, runtime.GOMAXPROCS(0))
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
		batch() // warm pass outside the timer: fills the cache once
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch()
		}
		b.StopTimer()
		if st, ok := eng.CacheStats(); ok {
			b.ReportMetric(st.HitRate(), "hit-rate")
		}
	})
}
