// Package graph provides the weighted undirected graph substrate used by
// every other package in this repository: a compact CSR (compressed sparse
// row) adjacency representation, a mutable Builder, traversal helpers,
// induced subgraphs with node remapping, and simple text/DOT codecs.
//
// Graphs are immutable once built. Node identifiers are dense integers in
// [0, N); an optional string label can be attached to each node (author
// names in the DBLP experiments). Edge weights are float64 and strictly
// positive; parallel edges are merged by summing their weights at build
// time. Self-loops are rejected: the CePS random walk and the EXTRACT
// dynamic program both assume a simple graph.
package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
)

// Graph is an immutable edge-weighted undirected graph in CSR form.
//
// Both directions of every undirected edge are stored, so the adjacency of
// node u is the half-open range adj[rowPtr[u]:rowPtr[u+1]] with parallel
// weights in w. Neighbors within a row are sorted by node id, which lets
// HasEdge and Weight run in O(log deg) and makes iteration order
// deterministic.
type Graph struct {
	rowPtr []int
	adj    []int
	w      []float64

	labels []string // empty if the graph is unlabeled

	weightedDeg []float64 // d_i: sum of incident edge weights (row sums of W)
	totalWeight float64   // sum of all edge weights (each undirected edge once)
	numEdges    int       // number of undirected edges
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.rowPtr) - 1 }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.numEdges }

// TotalWeight returns the sum of all undirected edge weights.
func (g *Graph) TotalWeight() float64 { return g.totalWeight }

// Degree returns the number of neighbors of node u.
func (g *Graph) Degree(u int) int { return g.rowPtr[u+1] - g.rowPtr[u] }

// WeightedDegree returns d_u, the sum of weights of edges incident to u.
// This is the row sum of the weight matrix W used by the normalizations in
// the paper (Eq. 5 and Eq. 10).
func (g *Graph) WeightedDegree(u int) float64 { return g.weightedDeg[u] }

// Neighbors returns the adjacency of node u as parallel slices of neighbor
// ids and edge weights. The slices alias the graph's internal storage and
// must not be modified.
func (g *Graph) Neighbors(u int) (nodes []int, weights []float64) {
	lo, hi := g.rowPtr[u], g.rowPtr[u+1]
	return g.adj[lo:hi], g.w[lo:hi]
}

// Slot returns the index of u's first adjacency slot: Neighbors(u) fills
// slots Slot(u) to Slot(u)+Degree(u)−1 of the graph's CSR order, and
// Slot(N()) is the slot count, 2·M.
func (g *Graph) Slot(u int) int { return g.rowPtr[u] }

// HasEdge reports whether the undirected edge (u, v) exists.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.findEdge(u, v)
	return ok
}

// Weight returns the weight of edge (u, v), or 0 if the edge does not exist.
func (g *Graph) Weight(u, v int) float64 {
	i, ok := g.findEdge(u, v)
	if !ok {
		return 0
	}
	return g.w[i]
}

// findEdge binary-searches u's sorted row for v and returns the index into
// adj/w.
func (g *Graph) findEdge(u, v int) (int, bool) {
	lo, hi := g.rowPtr[u], g.rowPtr[u+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case g.adj[mid] == v:
			return mid, true
		case g.adj[mid] < v:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0, false
}

// Label returns the label of node u, or a synthesized "n<u>" if the graph is
// unlabeled.
func (g *Graph) Label(u int) string {
	if len(g.labels) == 0 || g.labels[u] == "" {
		return fmt.Sprintf("n%d", u)
	}
	return g.labels[u]
}

// Labeled reports whether the graph carries node labels.
func (g *Graph) Labeled() bool { return len(g.labels) > 0 }

// NodeByLabel returns the id of the first node with the given label. It is
// a linear scan intended for test and CLI convenience, not hot paths.
func (g *Graph) NodeByLabel(label string) (int, bool) {
	for i, l := range g.labels {
		if l == label {
			return i, true
		}
	}
	return 0, false
}

// Edge is an undirected weighted edge with U < V.
type Edge struct {
	U, V int
	W    float64
}

// Edges returns all undirected edges (U < V) in deterministic order.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.numEdges)
	for u := 0; u < g.N(); u++ {
		nbrs, ws := g.Neighbors(u)
		for i, v := range nbrs {
			if u < v {
				edges = append(edges, Edge{U: u, V: v, W: ws[i]})
			}
		}
	}
	return edges
}

// ForEachEdge calls fn once per undirected edge with u < v.
func (g *Graph) ForEachEdge(fn func(u, v int, w float64)) {
	for u := 0; u < g.N(); u++ {
		nbrs, ws := g.Neighbors(u)
		for i, v := range nbrs {
			if u < v {
				fn(u, v, ws[i])
			}
		}
	}
}

// Fingerprint returns a stable 64-bit content hash of the graph's
// structure and weights: node count, edge count, and every undirected
// edge (u, v, weight bits) in the deterministic CSR iteration order.
// Labels are excluded — they never influence a solve — so two graphs with
// equal fingerprints produce identical random-walk score vectors under
// equal configurations. Unlike the process-local identities the score
// cache keys on, the fingerprint is stable across processes, which is
// what lets persisted precompute artifacts (internal/artifact) be keyed
// offline and matched at engine startup.
func (g *Graph) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(g.N()))
	put(uint64(g.numEdges))
	g.ForEachEdge(func(u, v int, w float64) {
		put(uint64(u))
		put(uint64(v))
		put(math.Float64bits(w))
	})
	return h.Sum64()
}

// Validate checks the internal invariants of the CSR representation. It is
// used by tests and by codecs after deserialization.
func (g *Graph) Validate() error {
	n := g.N()
	if n < 0 {
		return fmt.Errorf("graph: negative node count")
	}
	if g.rowPtr[0] != 0 || g.rowPtr[n] != len(g.adj) {
		return fmt.Errorf("graph: malformed rowPtr bounds")
	}
	if len(g.adj) != len(g.w) {
		return fmt.Errorf("graph: adj/w length mismatch: %d vs %d", len(g.adj), len(g.w))
	}
	if len(g.labels) != 0 && len(g.labels) != n {
		return fmt.Errorf("graph: labels length %d != n %d", len(g.labels), n)
	}
	var total float64
	halfEdges := 0
	for u := 0; u < n; u++ {
		if g.rowPtr[u] > g.rowPtr[u+1] {
			return fmt.Errorf("graph: rowPtr not monotone at node %d", u)
		}
		var deg float64
		prev := -1
		for i := g.rowPtr[u]; i < g.rowPtr[u+1]; i++ {
			v := g.adj[i]
			if v < 0 || v >= n {
				return fmt.Errorf("graph: neighbor %d of node %d out of range", v, u)
			}
			if v == u {
				return fmt.Errorf("graph: self-loop at node %d", u)
			}
			if v <= prev {
				return fmt.Errorf("graph: row %d not strictly sorted", u)
			}
			prev = v
			wt := g.w[i]
			if wt <= 0 || math.IsNaN(wt) || math.IsInf(wt, 0) {
				return fmt.Errorf("graph: invalid weight %v on edge (%d,%d)", wt, u, v)
			}
			if back, ok := g.findEdge(v, u); !ok {
				return fmt.Errorf("graph: edge (%d,%d) missing reverse direction", u, v)
			} else if g.w[back] != wt {
				return fmt.Errorf("graph: asymmetric weight on edge (%d,%d): %v vs %v", u, v, wt, g.w[back])
			}
			deg += wt
			halfEdges++
			if u < v {
				total += wt
			}
		}
		if math.Abs(deg-g.weightedDeg[u]) > 1e-9*(1+math.Abs(deg)) {
			return fmt.Errorf("graph: cached weighted degree of node %d is %v, recomputed %v", u, g.weightedDeg[u], deg)
		}
	}
	if halfEdges != 2*g.numEdges {
		return fmt.Errorf("graph: edge count %d inconsistent with %d stored arcs", g.numEdges, halfEdges)
	}
	if math.Abs(total-g.totalWeight) > 1e-9*(1+math.Abs(total)) {
		return fmt.Errorf("graph: cached total weight %v, recomputed %v", g.totalWeight, total)
	}
	return nil
}
