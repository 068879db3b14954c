package graph

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestInducedBasic(t *testing.T) {
	b := NewBuilder(5)
	b.SetLabel(0, "a")
	b.SetLabel(1, "b")
	b.SetLabel(2, "c")
	b.SetLabel(3, "d")
	b.SetLabel(4, "e")
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	b.AddEdge(2, 3, 3)
	b.AddEdge(3, 4, 4)
	b.AddEdge(0, 4, 5)
	g := b.MustBuild()

	sub, orig, toSub, err := g.Induced([]int{4, 0, 1, 0}) // dup + unsorted on purpose
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 3 {
		t.Fatalf("sub.N = %d, want 3", sub.N())
	}
	// orig must be sorted original ids.
	want := []int{0, 1, 4}
	for i, u := range want {
		if orig[i] != u {
			t.Fatalf("origIDs = %v, want %v", orig, want)
		}
		if toSub[u] != i {
			t.Fatalf("toSub[%d] = %d, want %d", u, toSub[u], i)
		}
	}
	// Edges (0,1) and (0,4) survive; (1,2) etc. do not.
	if sub.M() != 2 {
		t.Fatalf("sub.M = %d, want 2", sub.M())
	}
	if w := sub.Weight(toSub[0], toSub[4]); w != 5 {
		t.Errorf("weight(0,4) in sub = %v, want 5", w)
	}
	if sub.Label(toSub[4]) != "e" {
		t.Errorf("label carried over = %q, want e", sub.Label(toSub[4]))
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInducedErrors(t *testing.T) {
	g := path(t, 3)
	if _, _, _, err := g.Induced(nil); err == nil {
		t.Error("empty node set should fail")
	}
	if _, _, _, err := g.Induced([]int{5}); err == nil {
		t.Error("out-of-range node should fail")
	}
	if _, _, _, err := g.Induced([]int{-1}); err == nil {
		t.Error("negative node should fail")
	}
}

func TestInducedSingleton(t *testing.T) {
	g := path(t, 3)
	sub, _, _, err := g.Induced([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 1 || sub.M() != 0 {
		t.Fatalf("singleton induced: N=%d M=%d", sub.N(), sub.M())
	}
}

func TestSubgraphFillInduced(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(0, 2, 1)
	b.AddEdge(2, 3, 1)
	g := b.MustBuild()

	s := &Subgraph{Nodes: []int{0, 1, 2}}
	s.FillInduced(g)
	if len(s.InducedEdges) != 3 {
		t.Fatalf("InducedEdges = %v, want the 0-1-2 triangle", s.InducedEdges)
	}
	for _, e := range s.InducedEdges {
		if e.U == 3 || e.V == 3 {
			t.Errorf("edge %v touches node outside subgraph", e)
		}
	}
	if !s.Has(1) || s.Has(3) {
		t.Error("Has membership wrong")
	}
	if s.Size() != 3 {
		t.Errorf("Size = %d, want 3", s.Size())
	}
}

func TestSubgraphFillInducedMatchesMembershipScan(t *testing.T) {
	// Reference: test every neighbour of every node for membership, then
	// sort by (U, V). Node lists include hubs, repeats and out-of-order
	// ids; the edge lists must agree exactly, weights bit for bit.
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 40; iter++ {
		n := 5 + rng.Intn(120)
		b := NewBuilder(n)
		for i := 1; i < n; i++ {
			b.AddEdge(i, rng.Intn(i), rng.Float64()+0.1)
		}
		hub := rng.Intn(n)
		for v := 0; v < n; v++ {
			if v != hub && rng.Intn(2) == 0 {
				b.AddEdge(hub, v, rng.Float64()+0.1)
			}
		}
		g := b.MustBuild()
		s := &Subgraph{}
		for k := rng.Intn(n + 5); k > 0; k-- {
			s.Nodes = append(s.Nodes, rng.Intn(n))
		}
		if rng.Intn(2) == 0 {
			s.Nodes = append(s.Nodes, hub)
		}
		in := make(map[int]bool)
		for _, u := range s.Nodes {
			in[u] = true
		}
		var want []Edge
		for _, u := range s.Nodes {
			nbrs, ws := g.Neighbors(u)
			for i, v := range nbrs {
				if u < v && in[v] {
					want = append(want, Edge{U: u, V: v, W: ws[i]})
				}
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].U != want[j].U {
				return want[i].U < want[j].U
			}
			return want[i].V < want[j].V
		})
		s.FillInduced(g)
		if len(s.InducedEdges) != len(want) {
			t.Fatalf("iter %d: %d induced edges, want %d", iter, len(s.InducedEdges), len(want))
		}
		for i, e := range want {
			got := s.InducedEdges[i]
			if got.U != e.U || got.V != e.V || math.Float64bits(got.W) != math.Float64bits(e.W) {
				t.Fatalf("iter %d: edge %d = %v, want %v", iter, i, got, e)
			}
		}
	}
}

func TestSubgraphWriteDOT(t *testing.T) {
	b := NewBuilder(3)
	b.SetLabel(0, "Rakesh Agrawal")
	b.SetLabel(1, "Jiawei Han")
	b.SetLabel(2, "Philip Yu")
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	g := b.MustBuild()

	s := &Subgraph{Nodes: []int{0, 1, 2}, PathEdges: []Edge{{0, 1, 1}}}
	s.FillInduced(g)
	var sb strings.Builder
	if err := s.WriteDOT(&sb, g, DOTOptions{Highlight: []int{0}, IncludeInduced: true}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Rakesh Agrawal", "fillcolor=gold", "0 -- 1", "style=dotted"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}
