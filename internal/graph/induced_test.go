package graph

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// inducedByBuilder is the Builder-based construction Induced used before
// it filled rows straight from the parent's CSR, kept as the differential
// oracle: dedupe and sort the node set, then push every surviving edge
// through Builder.Build.
func inducedByBuilder(g *Graph, nodes []int) (*Graph, []int, map[int]int, error) {
	uniq := make([]int, 0, len(nodes))
	seen := make(map[int]bool, len(nodes))
	for _, u := range nodes {
		if u < 0 || u >= g.N() {
			return nil, nil, nil, fmt.Errorf("graph: induced node %d out of range [0,%d)", u, g.N())
		}
		if !seen[u] {
			seen[u] = true
			uniq = append(uniq, u)
		}
	}
	if len(uniq) == 0 {
		return nil, nil, nil, fmt.Errorf("graph: induced subgraph over empty node set")
	}
	sort.Ints(uniq)
	toSub := make(map[int]int, len(uniq))
	for i, u := range uniq {
		toSub[u] = i
	}
	b := NewBuilder(len(uniq))
	if g.Labeled() {
		for i, u := range uniq {
			b.SetLabel(i, g.labels[u])
		}
	}
	for i, u := range uniq {
		nbrs, ws := g.Neighbors(u)
		for j, v := range nbrs {
			if sv, ok := toSub[v]; ok && u < v {
				b.AddEdge(i, sv, ws[j])
			}
		}
	}
	sub, err := b.Build()
	if err != nil {
		return nil, nil, nil, err
	}
	return sub, uniq, toSub, nil
}

// graphBitsDiff describes the first difference between the stored
// representations of a and b — CSR arrays, weight bits, cached weighted
// degree and total weight bits, edge count and labels — or returns "".
func graphBitsDiff(a, b *Graph) string {
	switch {
	case !slices.Equal(a.rowPtr, b.rowPtr):
		return fmt.Sprintf("rowPtr %v vs %v", a.rowPtr, b.rowPtr)
	case !slices.Equal(a.adj, b.adj):
		return fmt.Sprintf("adj %v vs %v", a.adj, b.adj)
	case a.numEdges != b.numEdges:
		return fmt.Sprintf("M %d vs %d", a.numEdges, b.numEdges)
	case math.Float64bits(a.totalWeight) != math.Float64bits(b.totalWeight):
		return fmt.Sprintf("TotalWeight %x vs %x", math.Float64bits(a.totalWeight), math.Float64bits(b.totalWeight))
	case !slices.Equal(a.labels, b.labels):
		return fmt.Sprintf("labels %q vs %q", a.labels, b.labels)
	case len(a.w) != len(b.w) || len(a.weightedDeg) != len(b.weightedDeg):
		return "weight or degree array lengths differ"
	}
	for i := range a.w {
		if math.Float64bits(a.w[i]) != math.Float64bits(b.w[i]) {
			return fmt.Sprintf("weight %d: %x vs %x", i, math.Float64bits(a.w[i]), math.Float64bits(b.w[i]))
		}
	}
	for u := range a.weightedDeg {
		if math.Float64bits(a.WeightedDegree(u)) != math.Float64bits(b.WeightedDegree(u)) {
			return fmt.Sprintf("WeightedDegree(%d): %x vs %x", u, math.Float64bits(a.WeightedDegree(u)), math.Float64bits(b.WeightedDegree(u)))
		}
	}
	return ""
}

// wideWeightGraph is a random connected graph whose weights span several
// orders of magnitude, so that summing a row or the edge list in any other
// order than Builder.Build's changes the last bits of the sums.
func wideWeightGraph(rng *rand.Rand, n, extra int, labeled bool) *Graph {
	b := NewBuilder(n)
	weight := func() float64 { return math.Exp(rng.NormFloat64() * 4) }
	for i := 1; i < n; i++ {
		b.AddEdge(i, rng.Intn(i), weight())
	}
	for i := 0; i < extra; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n), weight())
	}
	if labeled {
		for u := 0; u < n; u++ {
			if rng.Intn(4) > 0 { // leave some labels empty
				b.SetLabel(u, fmt.Sprintf("author-%d", u))
			}
		}
	}
	return b.MustBuild()
}

func TestInducedMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 60; iter++ {
		n := 2 + rng.Intn(150)
		g := wideWeightGraph(rng, n, rng.Intn(6*n), iter%2 == 0)
		ascending := []int{}
		for u := 0; u < n; u++ {
			if rng.Intn(3) > 0 {
				ascending = append(ascending, u)
			}
		}
		shuffled := make([]int, 0, 2*n)
		for k := 1 + rng.Intn(2*n); k > 0; k-- {
			shuffled = append(shuffled, rng.Intn(n)) // repeats and any order
		}
		cases := map[string][]int{
			"ascending":        ascending,
			"unsorted+dups":    shuffled,
			"single":           {rng.Intn(n)},
			"full":             rng.Perm(n),
			"full (ascending)": identityIDs(n),
		}
		for name, nodes := range cases {
			if len(nodes) == 0 {
				continue
			}
			in := slices.Clone(nodes)
			sub, orig, toSub, err := g.Induced(nodes)
			if err != nil {
				t.Fatalf("iter %d %s: %v", iter, name, err)
			}
			if !slices.Equal(nodes, in) {
				t.Fatalf("iter %d %s: Induced modified its input", iter, name)
			}
			want, wantOrig, wantToSub, err := inducedByBuilder(g, nodes)
			if err != nil {
				t.Fatal(err)
			}
			if d := graphBitsDiff(sub, want); d != "" {
				t.Fatalf("iter %d %s: differs from the Builder construction: %s", iter, name, d)
			}
			if !slices.Equal(orig, wantOrig) || !maps.Equal(toSub, wantToSub) {
				t.Fatalf("iter %d %s: id maps differ: orig %v vs %v, toSub %v vs %v", iter, name, orig, wantOrig, toSub, wantToSub)
			}
			idsSub, idsOrig, err := g.InducedIDs(nodes)
			if err != nil {
				t.Fatalf("iter %d %s: InducedIDs: %v", iter, name, err)
			}
			if d := graphBitsDiff(idsSub, sub); d != "" {
				t.Fatalf("iter %d %s: InducedIDs and Induced return different graphs: %s", iter, name, d)
			}
			if !slices.Equal(idsOrig, orig) {
				t.Fatalf("iter %d %s: InducedIDs ids %v, Induced ids %v", iter, name, idsOrig, orig)
			}
			if err := sub.Validate(); err != nil {
				t.Fatalf("iter %d %s: %v", iter, name, err)
			}
			if name == "full" || name == "full (ascending)" {
				if d := graphBitsDiff(sub, g); d != "" {
					t.Fatalf("iter %d %s: the full node set does not return the parent: %s", iter, name, d)
				}
			}
		}
	}
}

func TestInducedErrorsMatchBuilder(t *testing.T) {
	g := wideWeightGraph(rand.New(rand.NewSource(4)), 10, 20, true)
	for _, nodes := range [][]int{nil, {}, {10}, {-1}, {3, 1, 12}, {0, -5}} {
		_, _, _, err := g.Induced(nodes)
		_, _, _, want := inducedByBuilder(g, nodes)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("Induced(%v) error %v, want %v", nodes, err, want)
		}
	}
}

func identityIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}
