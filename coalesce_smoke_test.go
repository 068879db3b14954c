package ceps_test

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ceps"
	"ceps/internal/experiments"
	"ceps/internal/fault"
)

// coalesceArm is the outcome of one arm of the coalescing comparison.
type coalesceArm struct {
	errored int64
	// rowsPerSec counts the per-source score rows delivered (answered sets
	// times their set size) per second of wall time.
	rowsPerSec float64
	p99MS      float64
	// meanWidth is the mean blocked panel width (on arm only).
	meanWidth float64
	answers   []*ceps.Result // by set index; nil where the set errored
}

// TestCoalesceSmoke runs the two-arm coalescing comparison at smoke scale
// and enforces the qualitative floors `make coalesce-smoke` gates on:
// concurrent misses actually merge (mean panel width > 1), the merged
// answers are bit-identical to the uncoalesced ones, and coalescing never
// costs throughput.
//
// Unpaced closed-loop clients drain a fixed list of distinct 2-source
// query sets through a deliberately small solve pool, once with the
// coalescer off and once on. The per-solve service time is pinned by an
// injected delay, which fires once per solve *call*: uncoalesced, every
// cache-miss set pays the full delay for its own handful of rows;
// coalesced, concurrent misses ride one blocked panel and the same delay
// buys up to MaxWidth rows.
func TestCoalesceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped with -short")
	}
	if raceDetectorEnabled {
		t.Skip("timing-sensitive; the race detector distorts the closed-loop " +
			"throughput comparison (make coalesce-smoke runs this without -race)")
	}
	s, err := experiments.NewSetup(0.2, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.Base.RWR.Iterations = 25
	const workers, clients, sets = 4, 32, 128
	restore := fault.SetActiveInjector(fault.NewInjector(fault.Injection{
		Point: fault.InjectSolveDelay,
		Delay: 4 * time.Millisecond,
	}))
	defer restore()

	// Distinct sources per set as far as the graph allows: a permutation
	// walk gives every set fresh cache misses until it wraps, and both
	// arms see the exact same sequence either way.
	n := s.Dataset.Graph.N()
	perm := rand.New(rand.NewSource(s.Seed*1_000_003 + 41)).Perm(n)
	queries := make([][]int, sets)
	for i := range queries {
		a, b := perm[(2*i)%n], perm[(2*i+1)%n]
		if a == b {
			b = perm[(2*i+2)%n]
		}
		queries[i] = []int{a, b}
	}
	cfg := s.Base
	cfg.Budget = 10

	var arms [2]coalesceArm
	for i, coalesced := range []bool{false, true} {
		opts := []ceps.Option{
			ceps.WithConfig(cfg), ceps.WithWorkers(workers),
			ceps.WithCache(64 << 20),
		}
		if coalesced {
			opts = append(opts, ceps.WithCoalescing(ceps.CoalesceOptions{}))
		}
		eng, err := ceps.NewEngine(s.Dataset.Graph, opts...)
		if err != nil {
			t.Fatal(err)
		}
		arms[i] = runCoalesceArm(eng, queries, clients)
		if st, ok := eng.CoalesceStats(); coalesced && ok && st.Panels > 0 {
			arms[i].meanWidth = float64(st.Rows) / float64(st.Panels)
		}
	}
	off, on := arms[0], arms[1]
	t.Logf("coalesce smoke: off %.0f rows/sec p99 %.1fms, on %.0f rows/sec p99 %.1fms, mean width %.1f, speedup %.2fx",
		off.rowsPerSec, off.p99MS, on.rowsPerSec, on.p99MS, on.meanWidth, on.rowsPerSec/off.rowsPerSec)

	for i := range queries {
		a, b := off.answers[i], on.answers[i]
		if a != nil && b != nil && !sameAnswerBits(a, b) {
			t.Errorf("set %v: coalesced answer diverged from the uncoalesced one", queries[i])
		}
	}
	if off.errored != 0 || on.errored != 0 {
		t.Errorf("errors under closed-loop load: off %d, on %d", off.errored, on.errored)
	}
	if on.meanWidth <= 1 {
		t.Errorf("mean panel width %.2f, want > 1: concurrent misses never merged", on.meanWidth)
	}
	// Qualitative floor only: how much coalescing gains is perfbench's to
	// measure, not a per-CI-run bound.
	if on.rowsPerSec < off.rowsPerSec {
		t.Errorf("coalescing lost throughput: on %.0f rows/sec < off %.0f",
			on.rowsPerSec, off.rowsPerSec)
	}
}

// runCoalesceArm drains the query list through one engine with an unpaced
// closed-loop client fleet and keeps every answer by set index.
func runCoalesceArm(eng *ceps.Engine, queries [][]int, clients int) coalesceArm {
	arm := coalesceArm{answers: make([]*ceps.Result, len(queries))}
	var next, rows, errored atomic.Int64
	var mu sync.Mutex
	var delivered []float64 // ms

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				t0 := time.Now()
				res, err := eng.Do(context.Background(), queries[i])
				lat := time.Since(t0)
				if err != nil {
					errored.Add(1)
					continue
				}
				rows.Add(int64(len(queries[i])))
				arm.answers[i] = res
				mu.Lock()
				delivered = append(delivered, 1e3*lat.Seconds())
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	arm.errored = errored.Load()
	arm.rowsPerSec = float64(rows.Load()) / time.Since(start).Seconds()
	if len(delivered) > 0 {
		sort.Float64s(delivered)
		arm.p99MS = delivered[int(math.Ceil(0.99*float64(len(delivered))))-1]
	}
	return arm
}
