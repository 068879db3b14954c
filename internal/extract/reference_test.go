package extract

import (
	"math"
	"sort"
	"testing"

	"ceps/internal/graph"
)

// This file keeps the straightforward EXTRACT as a test oracle: the Table 3
// key-path DP that rescans and re-sorts every candidate on each call, the
// O(n) Eq. 11 destination scan, and the Table 4 loop driving them. The
// differential tests hold the incremental implementation bit-identical to
// it.

// refPickDestination is Eq. 11 by linear scan: the highest combined score
// among nodes outside H that have not been proven unreachable, ties to the
// lowest id. Nodes with zero combined score are never picked.
func refPickDestination(combined []float64, inH, excluded []bool) int {
	best, bestScore := -1, 0.0
	for j, s := range combined {
		if inH[j] || excluded[j] || s <= 0 {
			continue
		}
		if s > bestScore {
			best, bestScore = j, s
		}
	}
	return best
}

// refPathDP holds the scratch buffers of the reference key-path DP.
type refPathDP struct {
	g *graph.Graph
	// cand[v] is v's index in the candidate ordering, or -1.
	cand []int
	// order lists candidate nodes in descending score (topological for the
	// downhill DAG).
	order []int
	stamp []int // generation marks to avoid clearing cand each call
	gen   int
}

func newRefPathDP(g *graph.Graph, n int) *refPathDP {
	return &refPathDP{g: g, cand: make([]int, n), stamp: make([]int, n)}
}

// keyPath is the Table 3 DP over the full candidate set of (src, pd):
// every node strictly uphill of pd plus pd, stably sorted by descending
// score, with each candidate's whole adjacency filtered for downhill edges.
func (d *refPathDP) keyPath(ri, combined []float64, src, pd int, inH []bool, maxNew int, noSharing bool) ([]int, bool) {
	scorePd := ri[pd]
	if ri[src] <= scorePd {
		return nil, false
	}

	d.gen++
	d.order = d.order[:0]
	for v := 0; v < len(ri); v++ {
		if v == pd || ri[v] > scorePd {
			d.order = append(d.order, v)
		}
	}
	sort.SliceStable(d.order, func(a, b int) bool {
		return ri[d.order[a]] > ri[d.order[b]]
	})
	for idx, v := range d.order {
		d.cand[v] = idx
		d.stamp[v] = d.gen
	}
	isCand := func(v int) bool { return d.stamp[v] == d.gen }

	nc := len(d.order)
	width := maxNew + 1
	best := make([]float64, nc*width)
	parent := make([]int32, nc*width)
	for i := range best {
		best[i] = math.Inf(-1)
		parent[i] = -2
	}
	srcIdx := d.cand[src]
	srcCost := 0
	if !inH[src] || noSharing {
		srcCost = 1
	}
	if srcCost > maxNew {
		return nil, false
	}
	if srcCost < width {
		best[srcIdx*width+srcCost] = combined[src]
		parent[srcIdx*width+srcCost] = -1
	}

	for oi, v := range d.order {
		if v == src {
			continue
		}
		cost := 1
		if inH[v] && !noSharing {
			cost = 0
		}
		nbrs, _ := d.g.Neighbors(v)
		vBase := oi * width
		for _, u := range nbrs {
			if !isCand(u) || ri[u] <= ri[v] {
				continue
			}
			uBase := d.cand[u] * width
			for s := cost; s < width; s++ {
				prev := best[uBase+s-cost]
				if math.IsInf(prev, -1) {
					continue
				}
				if cand := prev + combined[v]; cand > best[vBase+s] {
					best[vBase+s] = cand
					parent[vBase+s] = int32(uBase + s - cost)
				}
			}
		}
	}

	pdBase := d.cand[pd] * width
	bestS, bestRatio := -1, math.Inf(-1)
	for s := 1; s < width; s++ {
		if math.IsInf(best[pdBase+s], -1) {
			continue
		}
		if ratio := best[pdBase+s] / float64(s); ratio > bestRatio {
			bestRatio, bestS = ratio, s
		}
	}
	if bestS < 0 {
		return nil, false
	}
	var rev []int
	state := int32(pdBase + bestS)
	for state != -1 {
		rev = append(rev, d.order[int(state)/width])
		state = parent[state]
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, true
}

// refExtract is the Table 4 loop over the reference DP and destination
// scan. When t is non-nil it also drives a shadow scratch through the same
// rounds and fails t on the first destination or (path, ok) that differs.
func refExtract(t *testing.T, in Input) *Result {
	if t != nil {
		t.Helper()
	}
	if err := validate(&in); err != nil {
		panic(err)
	}
	n := in.G.N()
	k := in.K
	maxLen := in.MaxPathLen
	if maxLen <= 0 {
		maxLen = (in.Budget + k - 1) / k
	}
	if maxLen < 1 {
		maxLen = 1
	}

	inH := make([]bool, n)
	sub := &graph.Subgraph{}
	addNode := func(u int) bool {
		if inH[u] {
			return false
		}
		inH[u] = true
		sub.Nodes = append(sub.Nodes, u)
		return true
	}
	for _, qi := range in.Queries {
		addNode(qi)
	}
	var shadow *scratch
	if t != nil {
		shadow = new(scratch)
		shadow.reset(in.G, in.R, in.Uphill, in.Combined, inH)
	}

	excluded := make([]bool, n)
	newNodes := 0
	res := &Result{Provenance: make(map[int]Provenance)}
	dp := newRefPathDP(in.G, n)
	for newNodes < in.Budget {
		pd := refPickDestination(in.Combined, inH, excluded)
		if shadow != nil {
			if got := shadow.nextDestination(inH, excluded); got != pd {
				t.Fatalf("destination %d: scratch picked %d, reference %d", len(res.Destinations), got, pd)
			}
		}
		if pd < 0 {
			break
		}
		pathsAdded := 0
		for _, src := range activeSources(in.R, pd, k) {
			remaining := in.Budget - newNodes
			if remaining <= 0 {
				break
			}
			budgetCap := maxLen
			if budgetCap > remaining {
				budgetCap = remaining
			}
			path, ok := dp.keyPath(in.R[src], in.Combined, in.Queries[src], pd, inH, budgetCap, in.NoSharing)
			if shadow != nil {
				got, gotOK := shadow.keyPath(src, in.Queries[src], pd, inH, budgetCap, in.NoSharing)
				if !equalPath(got, gotOK, path, ok) {
					t.Fatalf("keyPath(src %d, pd %d, maxNew %d): scratch (%v, %v), reference (%v, %v)",
						src, pd, budgetCap, got, gotOK, path, ok)
				}
			}
			if !ok {
				continue
			}
			pathsAdded++
			res.PathsFound++
			for idx, u := range path {
				if addNode(u) {
					if shadow != nil {
						shadow.join(u)
					}
					newNodes++
					res.Provenance[u] = Provenance{Source: src, Dest: pd, Path: path}
				}
				if idx > 0 {
					a, b := path[idx-1], u
					if a > b {
						a, b = b, a
					}
					sub.PathEdges = append(sub.PathEdges, graph.Edge{U: a, V: b, W: in.G.Weight(a, b)})
				}
			}
		}
		if pathsAdded == 0 {
			excluded[pd] = true
			continue
		}
		res.Destinations = append(res.Destinations, pd)
	}

	dedupePathEdges(sub)
	sub.FillInduced(in.G)
	for _, u := range sub.Nodes {
		res.ExtractedGoodness += in.Combined[u]
	}
	res.Subgraph = sub
	return res
}

// equalPath reports whether two keyPath answers agree exactly.
func equalPath(a []int, aOK bool, b []int, bOK bool) bool {
	if aOK != bOK || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
