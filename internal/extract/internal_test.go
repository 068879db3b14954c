package extract

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ceps/internal/graph"
	"ceps/internal/score"
)

// pickDestination makes one Eq. 11 pick from a fresh scratch.
func pickDestination(combined []float64, inH, excluded []bool) int {
	sc := new(scratch)
	sc.reset(nil, nil, nil, combined, inH)
	return sc.nextDestination(inH, excluded)
}

func TestPickDestination(t *testing.T) {
	combined := []float64{0.5, 0.9, 0.7, 0, 0.8}
	inH := []bool{false, true, false, false, false}
	excluded := []bool{false, false, false, false, true}
	// 1 is in H, 4 excluded, 3 has zero score → best is 2 (0.7).
	if got := pickDestination(combined, inH, excluded); got != 2 {
		t.Fatalf("pickDestination = %d, want 2", got)
	}
	// Nothing eligible → -1.
	if got := pickDestination([]float64{0, 0}, []bool{false, false}, []bool{false, false}); got != -1 {
		t.Fatalf("empty pick = %d, want -1", got)
	}
	// Everything in H → -1.
	if got := pickDestination([]float64{1, 1}, []bool{true, true}, []bool{false, false}); got != -1 {
		t.Fatalf("all-in-H pick = %d, want -1", got)
	}
	// Successive picks from one scratch: ties go to the lowest id, nodes
	// that joined H or were excluded since the batch was gathered are
	// skipped.
	combined = []float64{0.4, 0.7, 0.4, 0.7, 0.9, 0.4}
	inH = make([]bool, 6)
	excluded = make([]bool, 6)
	sc := new(scratch)
	sc.reset(nil, nil, nil, combined, inH)
	inH[4] = true
	excluded[1] = true
	for _, want := range []int{3, 0, 2, 5, -1} {
		if got := sc.nextDestination(inH, excluded); got != want {
			t.Fatalf("successive pick = %d, want %d", got, want)
		}
	}

	// Past batchSize and 2·batchSize picks: four score levels put tie
	// groups across every batch boundary, and nodes join H or are excluded
	// between picks, as key paths and failed destinations do, so each
	// refill starts after the last node gathered and skips H.
	rng := rand.New(rand.NewSource(11))
	n := 3*batchSize + 37
	combined = make([]float64, n)
	for v := range combined {
		switch rng.Intn(10) {
		case 0:
			combined[v] = 0
		case 1:
			combined[v] = math.NaN()
		default:
			combined[v] = float64(1+rng.Intn(4)) / 4
		}
	}
	inH, excluded = make([]bool, n), make([]bool, n)
	inH[rng.Intn(n)] = true
	sc.reset(nil, nil, nil, combined, inH)
	picks := 0
	for {
		want := refPickDestination(combined, inH, excluded)
		if got := sc.nextDestination(inH, excluded); got != want {
			t.Fatalf("pick %d = %d, want %d", picks, got, want)
		}
		if want < 0 {
			break
		}
		picks++
		if rng.Intn(3) == 0 {
			excluded[want] = true
		} else {
			inH[want] = true
			inH[rng.Intn(n)] = true // a path brought another node along
		}
	}
	if picks <= 2*batchSize {
		t.Fatalf("only %d picks; the test must cross two batch boundaries", picks)
	}
}

func TestActiveSources(t *testing.T) {
	R := [][]float64{
		{0, 0, 0.1}, // source 0: r(0, pd) = 0.1
		{0, 0, 0.5}, // source 1: r(1, pd) = 0.5
		{0, 0, 0.3}, // source 2: r(2, pd) = 0.3
	}
	pd := 2
	if got := activeSources(R, pd, 1); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("k=1 actives = %v, want [1]", got)
	}
	if got := activeSources(R, pd, 2); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("k=2 actives = %v, want [1 2]", got)
	}
	if got := activeSources(R, pd, 3); !reflect.DeepEqual(got, []int{1, 2, 0}) {
		t.Fatalf("k=3 actives = %v, want [1 2 0]", got)
	}
	// k beyond Q clamps.
	if got := activeSources(R, pd, 9); len(got) != 3 {
		t.Fatalf("clamped actives = %v", got)
	}
}

func TestActiveSourcesTieBreaksByOrder(t *testing.T) {
	R := [][]float64{
		{0.5},
		{0.5},
		{0.5},
	}
	// All tied: stable sort keeps source order, exactly k actives.
	if got := activeSources(R, 0, 2); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("tied actives = %v, want [0 1]", got)
	}
}

func TestDedupePathEdges(t *testing.T) {
	sub := &graph.Subgraph{PathEdges: []graph.Edge{
		{U: 0, V: 1, W: 1},
		{U: 1, V: 2, W: 2},
		{U: 0, V: 1, W: 1}, // dup
		{U: 2, V: 3, W: 1},
		{U: 1, V: 2, W: 2}, // dup
	}}
	dedupePathEdges(sub)
	want := []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 3, W: 1}}
	if !reflect.DeepEqual(sub.PathEdges, want) {
		t.Fatalf("dedupe = %v, want %v", sub.PathEdges, want)
	}
}

func TestMaxPathLenDefaultCeilBOverK(t *testing.T) {
	// §7: len = ceil(b / k). With b=5, k=2 → 3: a path needing 3 new
	// nodes must be allowed, one needing 4 must not (when it is the only
	// route).
	b := graph.NewBuilder(6)
	for i := 0; i < 5; i++ {
		b.AddEdge(i, i+1, 1)
	}
	g := b.MustBuild()
	// Single query at 0; target chain.
	ri := []float64{0.9, 0.5, 0.4, 0.3, 0.2, 0.1}
	combined := []float64{0.9, 0.5, 0.4, 0.3, 0.2, 0.1}
	res, err := Extract(Input{
		G:       g,
		Queries: []int{0},
		R:       [][]float64{ri},
		Combined: func() []float64 {
			c := make([]float64, 6)
			copy(c, combined)
			return c
		}(),
		K:      1,
		Budget: 5,
		// MaxPathLen = 0 → ceil(5/1) = 5: the whole chain is reachable.
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Subgraph.Size() != 6 {
		t.Fatalf("default len should allow the whole chain, got %v", res.Subgraph.Nodes)
	}

	// An explicit cap of 2 keeps the far end out: node 5 needs ≥3 new
	// nodes on the first path. (Later paths build on earlier ones, so
	// nodes 1..4 arrive in two-new-node steps; 5 arrives eventually too.
	// To pin the cap's effect, give the far end zero goodness so only the
	// first pick matters.)
	res2, err := Extract(Input{
		G:          g,
		Queries:    []int{0},
		R:          [][]float64{ri},
		Combined:   []float64{0.9, 0.5, 0, 0, 0, 0},
		K:          1,
		Budget:     5,
		MaxPathLen: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Subgraph.Has(2) || res2.Subgraph.Has(5) {
		t.Fatalf("zero-goodness nodes beyond the first pick appeared: %v", res2.Subgraph.Nodes)
	}
	if !res2.Subgraph.Has(1) {
		t.Fatalf("node 1 should be extracted: %v", res2.Subgraph.Nodes)
	}
}

func TestExtractedGoodnessMatchesSum(t *testing.T) {
	g := randomGraph(t, 60, 150, 91)
	queries := []int{5, 40}
	R, combined := scoresFor(t, g, queries, score.AND{})
	res, err := Extract(Input{G: g, Queries: queries, R: R, Combined: combined, K: 2, Budget: 8})
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, u := range res.Subgraph.Nodes {
		want += combined[u]
	}
	if res.ExtractedGoodness != want {
		t.Fatalf("ExtractedGoodness = %v, want %v", res.ExtractedGoodness, want)
	}
}
