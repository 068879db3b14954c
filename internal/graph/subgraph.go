package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Induced returns the subgraph induced by the given node set together with
// the mapping between the two id spaces. The i-th entry of origIDs is the
// original id of subgraph node i; the returned map goes the other way.
// Callers that need only a few lookups the other way should use InducedIDs
// and search its ascending origIDs instead of paying for the map.
func (g *Graph) Induced(nodes []int) (sub *Graph, origIDs []int, toSub map[int]int, err error) {
	sub, origIDs, err = g.InducedIDs(nodes)
	if err != nil {
		return nil, nil, nil, err
	}
	toSub = make(map[int]int, len(origIDs))
	for i, u := range origIDs {
		toSub[u] = i
	}
	return sub, origIDs, toSub, nil
}

// InducedIDs returns the subgraph induced by the given node set and, at
// index i, the original id of subgraph node i. origIDs is strictly
// ascending, so slices.BinarySearch(origIDs, u) finds u's subgraph id.
// Duplicate nodes in the input are ignored. Labels are carried over.
//
// InducedIDs is the workhorse of Fast CePS (Table 5, Step 1): the union of
// the partitions containing the query nodes is materialized as a
// standalone graph that the full CePS pipeline then runs on, once per
// request. It costs O(|nodes| + Σ deg) beyond one position array over the
// parent's nodes: strictly ascending input (what partition.NodesInParts
// returns) skips the sort, and each row is the parent's row filtered
// through the monotone id map, so it stays sorted with no Builder and no
// row sort. Weighted degrees and the total weight are summed in the order
// Builder.Build sums them, so the result is bit-identical to building the
// same edges through a Builder.
func (g *Graph) InducedIDs(nodes []int) (sub *Graph, origIDs []int, err error) {
	n := g.N()
	// pos[u] is u's subgraph id + 1, and 0 while u is not in the subgraph.
	pos := make([]int32, n)
	uniq := make([]int, 0, len(nodes))
	ascending := true
	for _, u := range nodes {
		if u < 0 || u >= n {
			return nil, nil, fmt.Errorf("graph: induced node %d out of range [0,%d)", u, n)
		}
		if pos[u] != 0 {
			continue
		}
		pos[u] = 1
		if k := len(uniq); k > 0 && u < uniq[k-1] {
			ascending = false
		}
		uniq = append(uniq, u)
	}
	if len(uniq) == 0 {
		return nil, nil, fmt.Errorf("graph: induced subgraph over empty node set")
	}
	if !ascending {
		slices.Sort(uniq)
	}
	arcs := 0
	for i, u := range uniq {
		pos[u] = int32(i + 1)
		arcs += g.Degree(u)
	}

	sub = &Graph{
		rowPtr:      make([]int, len(uniq)+1),
		adj:         make([]int, 0, arcs),
		w:           make([]float64, 0, arcs),
		weightedDeg: make([]float64, len(uniq)),
	}
	for i, u := range uniq {
		nbrs, ws := g.Neighbors(u)
		var d float64
		for j, v := range nbrs {
			sv := int(pos[v]) - 1
			if sv < 0 {
				continue
			}
			sub.adj = append(sub.adj, sv)
			sub.w = append(sub.w, ws[j])
			d += ws[j]
			// Builder.Build sums the total over edges sorted by (u, v).
			if sv > i {
				sub.totalWeight += ws[j]
				sub.numEdges++
			}
		}
		sub.weightedDeg[i] = d
		sub.rowPtr[i+1] = len(sub.adj)
	}
	if g.Labeled() {
		sub.labels = make([]string, len(uniq))
		for i, u := range uniq {
			sub.labels[i] = g.labels[u]
		}
	}
	return sub, uniq, nil
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
