package linalg_test

import (
	"context"
	"fmt"
	"testing"

	"ceps/internal/dblp"
	"ceps/internal/linalg"
	"ceps/internal/rwr"
)

// BenchmarkBlockedSweep times one blocked solve (50 sweeps, one worker) on
// DBLP-like substrates of ~1,400 and 4,000 nodes — the sizes of a Fast
// CePS union and of the replace-subteam graph — at the panel widths the
// serving path forms, once per kernel the host can run. ns/nnz-col divides
// the time by sweeps × nonzeros × width. It calls only
// ScoresSetBlockedCtx, so the same file also measures builds that predate
// the fused sweep.
func BenchmarkBlockedSweep(b *testing.B) {
	for _, scale := range []float64{0.35, 1} {
		ds, err := dblp.Generate(dblp.Scale(dblp.DefaultConfig(), scale))
		if err != nil {
			b.Fatal(err)
		}
		cfg := rwr.DefaultConfig()
		s, err := rwr.NewSolver(ds.Graph, cfg)
		if err != nil {
			b.Fatal(err)
		}
		n := ds.Graph.N()
		nnz := 2 * ds.Graph.M()
		for _, kernel := range linalg.SweepKernels() {
			for _, w := range []int{1, 2, 3, 4, 8, 12, 16, 256} {
				queries := make([]int, w)
				for j := range queries {
					queries[j] = j * n / w
				}
				b.Run(fmt.Sprintf("n=%d/kernel=%s/width=%d", n, kernel, w), func(b *testing.B) {
					defer linalg.UseSweepKernel(kernel)()
					for i := 0; i < b.N; i++ {
						if _, _, err := s.ScoresSetBlockedCtx(context.Background(), queries, 1); err != nil {
							b.Fatal(err)
						}
					}
					perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
					b.ReportMetric(perOp/float64(cfg.Iterations*nnz*w), "ns/nnz-col")
				})
			}
		}
	}
}
