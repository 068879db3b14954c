package core

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"ceps/internal/graph"
	"ceps/internal/rwr"
)

// withIsolatedNode rebuilds g with one extra node that has no edges and
// returns its id.
func withIsolatedNode(t *testing.T, g *graph.Graph) (*graph.Graph, int) {
	t.Helper()
	b := graph.NewBuilder(g.N() + 1)
	b.Grow(g.N() + 1)
	g.ForEachEdge(func(u, v int, w float64) { b.AddEdge(u, v, w) })
	out, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return out, g.N()
}

// requireSamePrefix asserts got is the first len(got) entries of the full
// ranking, bit for bit, with the same pool size.
func requireSamePrefix(t *testing.T, label string, got, full *ReplaceResult, topN int) {
	t.Helper()
	want := full.Replacements
	if topN >= 0 && topN < len(want) {
		want = want[:topN]
	}
	if got.PoolSize != full.PoolSize || len(got.Replacements) != len(want) {
		t.Fatalf("%s: pool %d ranked %d, want pool %d ranked %d", label, got.PoolSize, len(got.Replacements), full.PoolSize, len(want))
	}
	for i, r := range got.Replacements {
		w := want[i]
		if r.Node != w.Node || math.Float64bits(r.Score) != math.Float64bits(w.Score) ||
			math.Float64bits(r.RWRProximity) != math.Float64bits(w.RWRProximity) ||
			math.Float64bits(r.Overlap) != math.Float64bits(w.Overlap) {
			t.Fatalf("%s: rank %d = %+v, full ranking has %+v", label, i, r, w)
		}
	}
}

// TestCertifiedTopNDifferential: every top-N answer equals the prefix of
// the whole pool's ranking (TopN: -1) bit for bit, across pool kinds —
// including an explicit pool with an isolated candidate and one where
// every overlap is 0 — ranking depths, normalizations, and plain, cached
// and coalesced serving. On the plain runner, where every resolved source
// is a miss, the two-hop top-10 resolves fewer walks than the pool has
// candidates: the certificate engaged.
func TestCertifiedTopNDifferential(t *testing.T) {
	ds := testDataset(t, 401)
	g, isolated := withIsolatedNode(t, ds.Graph)
	team := ds.Repository[0][:4]
	departing := team[1:2]
	var farPool []int // candidates sharing nothing with the departed member
	for c := 0; c < g.N() && len(farPool) < 24; c++ {
		if c != team[0] && c != team[1] && c != team[2] && c != team[3] &&
			overlapScore(g, nil, c, departing) == 0 && g.Degree(c) > 0 {
			farPool = append(farPool, c)
		}
	}
	nearPool := append([]int{isolated}, ds.Repository[1][:6]...)
	nearPool = append(nearPool, ds.Repository[0][4:]...)

	norms := []rwr.Config{
		{C: 0.5, Iterations: 30, Norm: rwr.NormColumn},
		{C: 0.5, Iterations: 30, Norm: rwr.NormDegreePenalized, Alpha: 0.5},
		{C: 0.5, Iterations: 30, Norm: rwr.NormSymmetric},
	}
	pools := []struct {
		name string
		spec ReplaceSpec
	}{
		{"two-hop", ReplaceSpec{Pool: PoolTwoHop}},
		{"densest", ReplaceSpec{Pool: PoolDensest}},
		{"explicit-isolated", ReplaceSpec{Candidates: nearPool}},
		{"explicit-zero-overlap", ReplaceSpec{Candidates: farPool}},
	}
	for _, rc := range norms {
		cfg := DefaultConfig()
		cfg.RWR = rc
		plain, err := NewRunner(g, rc)
		if err != nil {
			t.Fatal(err)
		}
		cached, err := NewRunner(g, rc)
		if err != nil {
			t.Fatal(err)
		}
		cached.WithServing(Serving{Cache: rwr.NewScoreCache(16 << 20)})
		coalesced, err := NewRunner(g, rc)
		if err != nil {
			t.Fatal(err)
		}
		coalesced.WithServing(Serving{Cache: rwr.NewScoreCache(16 << 20),
			Coalescer: rwr.NewCoalescer(rwr.CoalesceOptions{MaxWait: time.Millisecond})})
		runners := []struct {
			name string
			r    *Runner
		}{{"plain", plain}, {"cached", cached}, {"coalesced", coalesced}}

		for _, p := range pools {
			spec := p.spec
			spec.Team, spec.Departing, spec.Bipartite = team, departing, ds.Papers
			spec.TopN = -1
			full, err := plain.ReplaceSubteamCtx(context.Background(), spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			pool := full.PoolSize
			for _, topN := range []int{1, 10, pool - 1, pool, -1} {
				for _, rn := range runners {
					label := fmt.Sprintf("%v/%s/top%d/%s", rc.Norm, p.name, topN, rn.name)
					spec.TopN = topN
					got, err := rn.r.ReplaceSubteamCtx(context.Background(), spec, cfg)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					requireSamePrefix(t, label, got, full, topN)
					if rn.name == "plain" && p.name == "two-hop" && topN == 10 &&
						got.Stages.CacheMisses >= pool {
						t.Errorf("%s: resolved %d walks for a pool of %d: certificate did not engage",
							label, got.Stages.CacheMisses, pool)
					}
				}
			}
		}
	}
}

// TestCertifiedTopNTies: twin candidates with identical neighbourhoods,
// placed across rank N, come back in the whole-pool ranking's order.
func TestCertifiedTopNTies(t *testing.T) {
	// Team {0, 1, 2}, 2 departs. Twins 3 and 4 share neighbours {0, 2};
	// candidates 5–9 hang off the team at graded weights, so the twins sit
	// mid-ranking.
	b := graph.NewBuilder(12)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 1)
	for _, tw := range []int{3, 4} {
		b.AddEdge(tw, 0, 1)
		b.AddEdge(tw, 2, 1)
	}
	for i, c := range []int{5, 6, 7, 8, 9} {
		b.AddEdge(c, i%2, 0.5+float64(i)*0.6)
		b.AddEdge(c, 10, 1)
	}
	b.AddEdge(10, 11, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, rc := range []rwr.Config{
		{C: 0.5, Iterations: 40, Norm: rwr.NormColumn},
		{C: 0.5, Iterations: 40, Norm: rwr.NormDegreePenalized, Alpha: 0.5},
		{C: 0.5, Iterations: 40, Norm: rwr.NormSymmetric},
	} {
		r, err := NewRunner(g, rc)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.RWR = rc
		spec := ReplaceSpec{Team: []int{0, 1, 2}, Departing: []int{2},
			Candidates: []int{3, 4, 5, 6, 7, 8, 9, 11}, TopN: -1}
		full, err := r.ReplaceSubteamCtx(context.Background(), spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := -1
		for i, rep := range full.Replacements {
			if rep.Node == 3 || rep.Node == 4 {
				n = i + 1 // the first twin ends the top N, the second opens the rest
				break
			}
		}
		if n < 0 || n >= len(full.Replacements) {
			t.Fatalf("%v: twins not ranked: %+v", rc.Norm, full.Replacements)
		}
		if next := full.Replacements[n].Node; next != 3 && next != 4 {
			t.Fatalf("%v: twins not adjacent at rank %d: %+v", rc.Norm, n, full.Replacements)
		}
		spec.TopN = n
		got, err := r.ReplaceSubteamCtx(context.Background(), spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireSamePrefix(t, fmt.Sprintf("%v/top%d", rc.Norm, n), got, full, n)
	}
}

// TestSelectExactRule pins the selection rule on synthetic intervals: a
// candidate within ε of the N-th is solved, so are candidates within ε of
// the maximum and any candidate with no bound, and clear losers are not.
func TestSelectExactRule(t *testing.T) {
	const eps = 1e-11
	iv := func(p float64) (float64, float64) { return p * (1 - eps), p * (1 + eps) }
	cases := []struct {
		name string
		prox []float64
		ov   []float64
		topN int
		want []int
	}{
		// N = 2: candidates 1 and 2 tie for second within ε; 3 is out.
		{"nth", []float64{0.9, 0.5, 0.5 * (1 + eps), 0.1}, []float64{0, 0, 0, 0}, 2, []int{0, 1, 2}},
		// N = 1: candidates 0 and 1 are both possible maxima.
		{"max", []float64{0.9, 0.9 * (1 + eps/2), 0.4, 0.2}, []float64{0, 0, 0, 0}, 1, []int{0, 1}},
		// Overlap lifts candidate 3 into the top 2 despite its proximity.
		{"overlap", []float64{0.9, 0.3, 0.2, 0.1}, []float64{0, 0, 0, 9}, 2, []int{0, 3}},
		// A clear ranking keeps exactly N.
		{"clear", []float64{0.9, 0.7, 0.5, 0.3, 0.1}, []float64{1, 1, 1, 1, 1}, 3, []int{0, 1, 2}},
	}
	for _, c := range cases {
		lo, hi := make([]float64, len(c.prox)), make([]float64, len(c.prox))
		maxOv := 0.0
		for i, p := range c.prox {
			lo[i], hi[i] = iv(p)
			maxOv = max(maxOv, c.ov[i])
		}
		sel := replaceSelection{weights: DefaultReplaceWeights(), ov: c.ov, maxOverlap: maxOv, topN: c.topN}
		if got := selectExact(lo, hi, sel); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: selected %v, want %v", c.name, got, c.want)
		}
		// A candidate with no bound is always solved.
		lo = append(lo, 0)
		hi = append(hi, math.Inf(1))
		sel.ov = append(append([]float64(nil), c.ov...), 0)
		got := selectExact(lo, hi, sel)
		if len(got) == 0 || got[len(got)-1] != len(lo)-1 {
			t.Errorf("%s: unbounded candidate not selected: %v", c.name, got)
		}
	}
}
