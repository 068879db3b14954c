package rwr

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ceps/internal/dblp"
	"ceps/internal/graph"
)

// hubChainGraph is a weighted graph built to stress the certificate: a hub
// of degree 1,200 with irregular weights, cross edges among its leaves, a
// pendant chain hanging off one leaf, and an isolated last node.
func hubChainGraph(t *testing.T) (g *graph.Graph, hub, chainEnd, isolated int) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	const leaves, chain = 1200, 8
	b := graph.NewBuilder(1 + leaves + chain + 1)
	for v := 1; v <= leaves; v++ {
		b.AddEdge(0, v, 0.1+10*rng.Float64())
	}
	for i := 0; i < 3*leaves; i++ {
		b.AddEdge(1+rng.Intn(leaves), 1+rng.Intn(leaves), math.Exp(4*rng.NormFloat64()))
	}
	prev := 7
	for v := leaves + 1; v <= leaves+chain; v++ {
		b.AddEdge(prev, v, 0.5+rng.Float64())
		prev = v
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, 0, leaves + chain, leaves + chain + 1
}

// TestReversibilityBound checks the solver's m-sweep iterate against the
// reversibility identity of Eqs. 5, 10 and 20 — the paper's normalizations,
// not another serving path: for sampled pairs, the computed r(c, m) lies
// in the certificate's interval around (X_c/X_m)·r(m, c), and
// |r(c, m) − (X_c/X_m)·r(m, c)| ≤ ε·r(c, m) + η.
func TestReversibilityBound(t *testing.T) {
	ds, err := dblp.Generate(dblp.Scale(dblp.DefaultConfig(), 0.25))
	if err != nil {
		t.Fatal(err)
	}
	hubG, hub, chainEnd, isolated := hubChainGraph(t)
	rng := rand.New(rand.NewSource(11))
	sample := func(g *graph.Graph, must ...int) []int {
		nodes := append([]int(nil), must...)
		for len(nodes) < 16 {
			nodes = append(nodes, rng.Intn(g.N()))
		}
		return nodes
	}
	graphs := []struct {
		name  string
		g     *graph.Graph
		nodes []int
	}{
		{"dblp", ds.Graph, sample(ds.Graph, ds.Repository[0]...)},
		{"hub-chain", hubG, sample(hubG, hub, 1, 7, chainEnd-1, chainEnd)},
	}
	norms := []struct {
		name string
		cfg  Config
	}{
		{"eq5", Config{C: 0.5, Norm: NormColumn}},
		{"eq10-a0.5", Config{C: 0.5, Norm: NormDegreePenalized, Alpha: 0.5}},
		{"eq10-a1", Config{C: 0.5, Norm: NormDegreePenalized, Alpha: 1}},
		{"eq20", Config{C: 0.5, Norm: NormSymmetric}},
	}
	for _, gr := range graphs {
		for _, nm := range norms {
			for _, m := range []int{1, 7, 50} {
				cfg := nm.cfg
				cfg.Iterations = m
				s, err := NewSolver(gr.g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				rv, ok := s.Reversibility()
				if !ok {
					t.Fatalf("%s/%s/m=%d: no certificate", gr.name, nm.name, m)
				}
				R, _, err := s.ScoresSetBlockedCtx(context.Background(), gr.nodes, 1)
				if err != nil {
					t.Fatal(err)
				}
				worst := 0.0
				for i, c := range gr.nodes {
					for j, mm := range gr.nodes {
						if c == mm {
							continue
						}
						rcm, rmc := R[i][mm], R[j][c]
						lo, hi, ok := rv.Bound(c, mm, rmc)
						if !ok {
							t.Fatalf("%s/%s/m=%d: no bound for (%d, %d)", gr.name, nm.name, m, c, mm)
						}
						if rcm < lo || rcm > hi {
							t.Fatalf("%s/%s/m=%d: r(%d,%d) = %v outside [%v, %v]", gr.name, nm.name, m, c, mm, rcm, lo, hi)
						}
						tt := rv.x[c] / rv.x[mm] * rmc
						gap := math.Abs(rcm - tt)
						if gap > rv.eps*rcm+rv.eta {
							t.Fatalf("%s/%s/m=%d: |r(%d,%d) − t| = %v > ε·r + η = %v", gr.name, nm.name, m, c, mm, gap, rv.eps*rcm+rv.eta)
						}
						if rcm > 0 {
							worst = max(worst, gap/rcm/rv.eps)
						}
					}
				}
				t.Logf("%s/%s/m=%d: ε = %.3g, η = %.3g, largest gap %.3g of ε", gr.name, nm.name, m, rv.eps, rv.eta, worst)
			}
		}
	}

	// No bound where none exists: early stopping, and isolated nodes.
	s, err := NewSolver(hubG, Config{C: 0.5, Iterations: 50, Norm: NormColumn, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Reversibility(); ok {
		t.Error("Tol > 0 solver reported a certificate")
	}
	s, err = NewSolver(hubG, Config{C: 0.5, Iterations: 50, Norm: NormColumn})
	if err != nil {
		t.Fatal(err)
	}
	rv, _ := s.Reversibility()
	if rv.Covers(isolated) || !rv.Covers(hub) {
		t.Errorf("Covers: isolated %v, hub %v", rv.Covers(isolated), rv.Covers(hub))
	}
	if _, _, ok := rv.Bound(isolated, hub, 0); ok {
		t.Error("bound from an isolated candidate")
	}
	if _, _, ok := rv.Bound(hub, isolated, 0); ok {
		t.Error("bound toward an isolated member")
	}
}

// TestReversibilityEpsilonScale pins ε to its derivation on the 4,000-node
// substrate: k = largest row nonzero count, m = 50 gives ε ≈
// 2m·γ_{k+2} ≈ 1.4e-11, far below the gaps rankings depend on.
func TestReversibilityEpsilonScale(t *testing.T) {
	ds, err := dblp.Generate(dblp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(ds.Graph, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rv, ok := s.Reversibility()
	if !ok {
		t.Fatal("no certificate for the paper's default config")
	}
	k := 0
	for r := 0; r < s.n; r++ {
		cols, _ := s.trans.Row(r)
		k = max(k, len(cols))
	}
	want := 2 * 50 * gamma(k+2)
	if rv.eps < want || rv.eps > 1.01*want+1e-13 {
		t.Errorf("ε = %g, want ≈ 2m·γ_{k+2} = %g (k = %d)", rv.eps, want, k)
	}
	if rv.eta > 1e-250 {
		t.Errorf("η = %g, want negligible", rv.eta)
	}
}
