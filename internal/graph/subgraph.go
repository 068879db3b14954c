package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Induced returns the subgraph induced by the given node set together with
// the mapping between the two id spaces. The i-th entry of origIDs is the
// original id of subgraph node i; the returned map goes the other way.
// Duplicate nodes in the input are ignored. Labels are carried over.
//
// Induced is the workhorse of Fast CePS (Table 5, Step 1): the union of the
// partitions containing the query nodes is materialized as a standalone
// graph that the full CePS pipeline then runs on.
func (g *Graph) Induced(nodes []int) (sub *Graph, origIDs []int, toSub map[int]int, err error) {
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
	toSub = make(map[int]int, len(uniq))
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
	sub, err = b.Build()
	if err != nil {
		return nil, nil, nil, err
	}
	return sub, uniq, toSub, nil
}

// Subgraph is the output of an extraction algorithm: a small node set over
// the original graph, the path edges the extractor walked, and the full set
// of original-graph edges induced on the node set (used for display and for
// the ERatio metric).
type Subgraph struct {
	// Nodes are original-graph ids in insertion order (query nodes first).
	Nodes []int
	// PathEdges are the edges of the key paths that justified each node's
	// inclusion, i.e. the "explanation" edges in the paper's sense.
	PathEdges []Edge
	// InducedEdges are all original-graph edges with both endpoints in
	// Nodes.
	InducedEdges []Edge
}

// Has reports whether node u (original id) is in the subgraph.
func (s *Subgraph) Has(u int) bool {
	for _, v := range s.Nodes {
		if v == u {
			return true
		}
	}
	return false
}

// Size returns the number of nodes.
func (s *Subgraph) Size() int { return len(s.Nodes) }

// FillInduced recomputes InducedEdges from the parent graph, sorted by
// (U, V); a node listed m times contributes each of its edges m times.
// Each node's higher neighbours are intersected with the higher subgraph
// nodes by binary search from the shorter side, so a hub costs
// O(|Nodes|·log deg) instead of a membership test per neighbour.
func (s *Subgraph) FillInduced(g *Graph) {
	nodes := slices.Clone(s.Nodes)
	slices.Sort(nodes)
	set := slices.Compact(slices.Clone(nodes))
	s.InducedEdges = s.InducedEdges[:0]
	emit := func(u, v int, w float64, times int) {
		for ; times > 0; times-- {
			s.InducedEdges = append(s.InducedEdges, Edge{U: u, V: v, W: w})
		}
	}
	at := 0 // nodes[at:] are the occurrences of set[j:]
	for j, u := range set {
		times := 0
		for ; at < len(nodes) && nodes[at] == u; at++ {
			times++
		}
		above := set[j+1:]
		nbrs, ws := g.Neighbors(u)
		lo := sort.SearchInts(nbrs, u+1)
		nbrs, ws = nbrs[lo:], ws[lo:]
		if len(above) < len(nbrs) {
			for _, v := range above {
				if k, ok := slices.BinarySearch(nbrs, v); ok {
					emit(u, v, ws[k], times)
				}
			}
			continue
		}
		for k, v := range nbrs {
			if _, ok := slices.BinarySearch(above, v); ok {
				emit(u, v, ws[k], times)
			}
		}
	}
}
