package rwr

import (
	"math"
	"math/rand"
	"testing"

	"ceps/internal/graph"
)

func randomGraph(t testing.TB, n, extra int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(i, rng.Intn(i), 1+float64(rng.Intn(5)))
	}
	for i := 0; i < extra; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n), 1+float64(rng.Intn(5)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func colConfig() Config { return Config{C: 0.5, Iterations: 80, Norm: NormColumn} }

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{C: 0, Iterations: 10},
		{C: 1, Iterations: 10},
		{C: -0.1, Iterations: 10},
		{C: 0.5, Iterations: 0},
		{C: 0.5, Iterations: 10, Norm: NormDegreePenalized, Alpha: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should be invalid: %+v", i, cfg)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestNormKindString(t *testing.T) {
	if NormColumn.String() != "column" || NormDegreePenalized.String() != "degree-penalized" ||
		NormSymmetric.String() != "symmetric" {
		t.Error("NormKind names wrong")
	}
	if NormKind(99).String() == "" {
		t.Error("unknown kind should still format")
	}
}

// TestParseNorm: the command-line names of the three normalizations
// parse, and nothing else does.
func TestParseNorm(t *testing.T) {
	for name, want := range map[string]NormKind{
		"column":    NormColumn,
		"penalized": NormDegreePenalized,
		"symmetric": NormSymmetric,
	} {
		if got, err := ParseNorm(name); err != nil || got != want {
			t.Errorf("ParseNorm(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "bogus", "Column", "degree-penalized", " column"} {
		if _, err := ParseNorm(name); err == nil {
			t.Errorf("ParseNorm(%q) accepted", name)
		}
	}
}

func TestColumnScoresAreDistribution(t *testing.T) {
	g := randomGraph(t, 120, 240, 4)
	s, err := NewSolver(g, colConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{0, 17, 119} {
		r, err := s.Scores(q)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sumOf(r); math.Abs(sum-1) > 1e-9 {
			t.Errorf("scores from %d sum to %v, want 1", q, sum)
		}
		for j, v := range r {
			if v < 0 {
				t.Errorf("negative score r(%d,%d) = %v", q, j, v)
			}
		}
	}
}

func TestQueryNodeHasMaxScore(t *testing.T) {
	// With c ≤ 1/2, r(q,q) ≥ 1−c ≥ c ≥ r(q,j) for all j ≠ q.
	g := randomGraph(t, 80, 200, 8)
	s, err := NewSolver(g, colConfig())
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < g.N(); q += 7 {
		r, err := s.Scores(q)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range r {
			if j != q && v > r[q] {
				t.Fatalf("r(%d,%d)=%v exceeds query self-score %v", q, j, v, r[q])
			}
		}
	}
}

func TestIterativeMatchesClosedForm(t *testing.T) {
	g := randomGraph(t, 40, 80, 5)
	for _, norm := range []NormKind{NormColumn, NormDegreePenalized, NormSymmetric} {
		cfg := Config{C: 0.5, Iterations: 200, Norm: norm, Alpha: 0.5}
		s, err := NewSolver(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []int{0, 13, 39} {
			iter, err := s.Scores(q)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := s.ExactScores(q)
			if err != nil {
				t.Fatal(err)
			}
			for j := range iter {
				if math.Abs(iter[j]-exact[j]) > 1e-9 {
					t.Fatalf("norm %v q %d node %d: iter %v vs exact %v", norm, q, j, iter[j], exact[j])
				}
			}
		}
	}
}

func TestPaperIterationCountNearConverged(t *testing.T) {
	// §7: m = 50 suffices. Check the m=50 answer is within 1e-4 of exact.
	g := randomGraph(t, 60, 150, 6)
	cfg := Config{C: 0.5, Iterations: 50, Norm: NormColumn}
	s, err := NewSolver(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	iter, err := s.Scores(3)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := s.ExactScores(3)
	if err != nil {
		t.Fatal(err)
	}
	for j := range iter {
		if math.Abs(iter[j]-exact[j]) > 1e-4 {
			t.Fatalf("node %d: m=50 score %v too far from exact %v", j, iter[j], exact[j])
		}
	}
}

func TestSymmetricScoresAreSymmetric(t *testing.T) {
	g := randomGraph(t, 50, 120, 10)
	s, err := NewSolver(g, Config{C: 0.5, Iterations: 150, Norm: NormSymmetric})
	if err != nil {
		t.Fatal(err)
	}
	R, err := s.ScoresSet([]int{2, 31, 47})
	if err != nil {
		t.Fatal(err)
	}
	qs := []int{2, 31, 47}
	for a := range qs {
		for b := range qs {
			if math.Abs(R[a][qs[b]]-R[b][qs[a]]) > 1e-9 {
				t.Errorf("asymmetry: r(%d,%d)=%v vs r(%d,%d)=%v",
					qs[a], qs[b], R[a][qs[b]], qs[b], qs[a], R[b][qs[a]])
			}
		}
	}
}

func TestDegreePenalizationDemotesHubs(t *testing.T) {
	// A hub connected to everything competes with a specific strong path.
	// Under α > 0 the hub's share of the walk must drop.
	b := graph.NewBuilder(12)
	hub := 0
	for i := 1; i < 12; i++ {
		b.AddEdge(hub, i, 1)
	}
	b.AddEdge(1, 2, 1) // q=1's alternative non-hub neighbor
	g := b.MustBuild()

	score := func(alpha float64) float64 {
		s, err := NewSolver(g, Config{C: 0.5, Iterations: 100, Norm: NormDegreePenalized, Alpha: alpha})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Scores(1)
		if err != nil {
			t.Fatal(err)
		}
		return r[hub] / (r[hub] + r[2]) // hub share vs the modest neighbor
	}
	if s0, s1 := score(0), score(1); s1 >= s0 {
		t.Errorf("hub share did not drop under penalization: α=0 %v, α=1 %v", s0, s1)
	}
}

func TestAlphaZeroMatchesColumn(t *testing.T) {
	g := randomGraph(t, 30, 60, 12)
	sc, err := NewSolver(g, Config{C: 0.5, Iterations: 60, Norm: NormColumn})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSolver(g, Config{C: 0.5, Iterations: 60, Norm: NormDegreePenalized, Alpha: 0})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := sc.Scores(5)
	b, _ := sp.Scores(5)
	for j := range a {
		if math.Abs(a[j]-b[j]) > 1e-12 {
			t.Fatalf("α=0 diverges from column normalization at node %d", j)
		}
	}
}

func TestTransitionProbColumnStochastic(t *testing.T) {
	g := randomGraph(t, 40, 100, 14)
	s, err := NewSolver(g, colConfig())
	if err != nil {
		t.Fatal(err)
	}
	for from := 0; from < g.N(); from++ {
		var sum float64
		nbrs, _ := g.Neighbors(from)
		for _, to := range nbrs {
			p := s.TransitionProb(from, to)
			if p <= 0 {
				t.Fatalf("transition %d->%d should be positive", from, to)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("outgoing probabilities from %d sum to %v", from, sum)
		}
	}
	if p := s.TransitionProb(0, 0); p != 0 {
		t.Errorf("self transition should be 0, got %v", p)
	}
}

func TestIsolatedQueryLeaksGracefully(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 1)
	g := b.MustBuild() // node 2 isolated
	s, err := NewSolver(g, colConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Scores(2)
	if err != nil {
		t.Fatal(err)
	}
	if r[2] <= 0 || r[0] != 0 || r[1] != 0 {
		t.Fatalf("isolated query scores = %v", r)
	}
}

func TestScoreErrors(t *testing.T) {
	g := randomGraph(t, 10, 10, 1)
	s, err := NewSolver(g, colConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Scores(-1); err == nil {
		t.Error("negative query should fail")
	}
	if _, err := s.Scores(10); err == nil {
		t.Error("out-of-range query should fail")
	}
	if _, err := s.ScoresSet(nil); err == nil {
		t.Error("empty query set should fail")
	}
	if _, err := s.ExactScores(99); err == nil {
		t.Error("exact with bad query should fail")
	}
	if _, err := NewSolver(g, Config{C: 2, Iterations: 5}); err == nil {
		t.Error("bad config should fail NewSolver")
	}
}

func TestEarlyStoppingTolerance(t *testing.T) {
	g := randomGraph(t, 150, 400, 57)
	full, err := NewSolver(g, Config{C: 0.5, Iterations: 200, Norm: NormColumn})
	if err != nil {
		t.Fatal(err)
	}
	early, err := NewSolver(g, Config{C: 0.5, Iterations: 200, Norm: NormColumn, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	rFull, itFull, err := full.ScoresWithStats(9)
	if err != nil {
		t.Fatal(err)
	}
	rEarly, itEarly, err := early.ScoresWithStats(9)
	if err != nil {
		t.Fatal(err)
	}
	if itFull != 200 {
		t.Fatalf("full run used %d sweeps, want the cap 200", itFull)
	}
	if itEarly >= itFull {
		t.Fatalf("early stopping used %d sweeps, should be below %d", itEarly, itFull)
	}
	for j := range rFull {
		if math.Abs(rFull[j]-rEarly[j]) > 1e-8 {
			t.Fatalf("early-stopped scores diverge at node %d: %v vs %v", j, rEarly[j], rFull[j])
		}
	}
}

func sumOf(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}
