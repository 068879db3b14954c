// Package extract implements the paper's EXTRACT algorithm (§5): given the
// individual and combined closeness scores, it grows a small connected
// explanation subgraph H that maximizes the captured goodness within a node
// budget.
//
// The algorithm (Table 4) repeatedly (1) picks the most promising
// destination node pd — the highest combined score outside H (Eq. 11) —
// (2) determines the k active sources for pd (the k query nodes with the
// largest individual score at pd), and (3) for each active source runs the
// single-key-path dynamic program of Table 3 over the "specified downhill"
// DAG: node u precedes v w.r.t. source q_i iff r(i,u) > r(i,v), so paths
// always descend the source's score landscape and can be found by a DP in
// topological (score) order. Path length is measured in *new* nodes, which
// makes paths prefer to travel through nodes that are already part of H —
// exactly the sharing behaviour the paper wants from a budget-limited
// display.
//
// A query's key paths share their structure instead of rebuilding it per
// (source, destination) pair. Destinations come from a max-heap over
// r(Q, ·) built once per query. Each active source keeps one node order by
// descending r(i, ·), extended only as deep as the lowest destination
// score asked of it: an O(n) scan each time a destination lies below all
// earlier ones, and over the query one sort of the deepest candidate
// prefix. An ordered node's uphill neighbours are kept as a rank list,
// built the first time a key path needs it, so a key path toward pd runs
// Table 3's DP over the prefix ending at pd, filling only pd's ancestors,
// in O(Σ uphill-degree × (maxNew+1)).
package extract

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"ceps/internal/fault"
	"ceps/internal/graph"
	"ceps/internal/obs"
)

// Input bundles everything EXTRACT needs.
type Input struct {
	// G is the graph being explained.
	G *graph.Graph
	// Queries are the query node ids; they are always part of the output.
	Queries []int
	// R[i][j] = r(q_i, j): individual closeness score of node j w.r.t.
	// query i (same order as Queries).
	R [][]float64
	// Combined[j] = r(Q, j): the combined goodness score under the chosen
	// query type.
	Combined []float64
	// K is the number of active sources per destination: Q for AND
	// queries, 1 for OR queries, k for K_softAND (§5, footnote 2). Values
	// outside [1, len(Queries)] are clamped.
	K int
	// Budget is the maximum number of non-query nodes in H (Problem 1's
	// b). Must be positive.
	Budget int
	// MaxPathLen caps the number of new nodes a single key path may
	// introduce. Zero means the paper's default ceil(Budget/K) (§7).
	MaxPathLen int
	// NoSharing disables the paper's path-sharing discount: normally a
	// path is charged only for *new* nodes ("we define the length of the
	// path as the number of new nodes … to encourage different paths to
	// share", §5), which makes later paths reuse the subgraph already
	// built. With NoSharing every node on a path costs 1 whether or not
	// it is already in H. This exists for the ablation benchmark; leave
	// it false for the paper's algorithm.
	NoSharing bool
}

// Result is the extracted subgraph plus bookkeeping that the evaluation
// metrics and the experiments use.
type Result struct {
	Subgraph *graph.Subgraph
	// ExtractedGoodness is CF(H) = Σ_{j∈H} r(Q, j) (§5).
	ExtractedGoodness float64
	// Destinations lists the chosen pd nodes in pick order.
	Destinations []int
	// PathsFound counts the key paths added to H.
	PathsFound int
	// Provenance records, for every non-query node of H, the key path
	// that introduced it — the paper's "interpretations on why such nodes
	// are good/close wrt the query set" (§5). Keys are node ids.
	Provenance map[int]Provenance
}

// Provenance explains one extracted node: it joined H on the key path from
// source query Source (an index into Input.Queries) toward destination
// Dest.
type Provenance struct {
	// Source is the index into Input.Queries of the path's source.
	Source int
	// Dest is the destination node pd the path was aimed at.
	Dest int
	// Path is the full source→destination key path the node arrived on.
	Path []int
}

// scratchPool recycles per-query scratch across ExtractCtx calls; a scratch
// serves one call at a time and drops its input references on return.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Extract runs the EXTRACT algorithm of Table 4.
func Extract(in Input) (*Result, error) {
	return ExtractCtx(context.Background(), in)
}

// ExtractCtx is Extract with cooperative cancellation: ctx is checked
// before each destination pick and before each key-path dynamic program —
// the two unbounded-work loops of Table 4 — so a fired deadline aborts
// within one path discovery.
func ExtractCtx(ctx context.Context, in Input) (*Result, error) {
	if err := validate(&in); err != nil {
		return nil, err
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

	sc := scratchPool.Get().(*scratch)
	defer func() {
		sc.release()
		scratchPool.Put(sc)
	}()
	inH, excluded := sc.flags(n)
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

	newNodes := 0
	res := &Result{Provenance: make(map[int]Provenance)}
	sc.reset(in.G, in.R, in.Combined, inH)
	// Destination events are gated on Recording so untraced extraction
	// never builds attribute slices.
	span := obs.SpanFromContext(ctx)

	for newNodes < in.Budget {
		if err := fault.FromContext(ctx); err != nil {
			return nil, err
		}
		pd := sc.nextDestination(inH, excluded)
		if pd < 0 {
			break // nothing promising remains
		}
		actives := activeSources(in.R, pd, k)
		prevNew := newNodes
		pathsAdded := 0
		for _, src := range actives {
			if err := fault.FromContext(ctx); err != nil {
				return nil, err
			}
			remaining := in.Budget - newNodes
			if remaining <= 0 {
				break
			}
			budgetCap := maxLen
			if budgetCap > remaining {
				budgetCap = remaining
			}
			path, ok := sc.keyPath(src, in.Queries[src], pd, inH, budgetCap, in.NoSharing)
			if !ok {
				continue
			}
			pathsAdded++
			res.PathsFound++
			for idx, u := range path {
				if addNode(u) {
					newNodes++
					res.Provenance[u] = Provenance{Source: src, Dest: pd, Path: path}
				}
				if idx > 0 {
					prev := path[idx-1]
					a, b := prev, u
					if a > b {
						a, b = b, a
					}
					sub.PathEdges = append(sub.PathEdges, graph.Edge{U: a, V: b, W: in.G.Weight(a, b)})
				}
			}
		}
		if span.Recording() {
			span.AddEvent("destination", obs.Int("dest", pd), obs.Int("paths", pathsAdded),
				obs.Int("new_nodes", newNodes-prevNew), obs.Bool("excluded", pathsAdded == 0))
		}
		if pathsAdded == 0 {
			// pd cannot be connected to any active source; never retry it.
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
	return res, nil
}

func validate(in *Input) error {
	if in.G == nil {
		return fmt.Errorf("extract: nil graph")
	}
	n := in.G.N()
	if len(in.Queries) == 0 {
		return fmt.Errorf("%w: extract: empty query set", fault.ErrBadQuery)
	}
	seen := make(map[int]bool, len(in.Queries))
	for _, q := range in.Queries {
		if q < 0 || q >= n {
			return fmt.Errorf("%w: extract: query node %d out of range [0,%d)", fault.ErrBadQuery, q, n)
		}
		if seen[q] {
			return fmt.Errorf("%w: extract: duplicate query node %d", fault.ErrBadQuery, q)
		}
		seen[q] = true
	}
	if len(in.R) != len(in.Queries) {
		return fmt.Errorf("extract: %d score rows for %d queries", len(in.R), len(in.Queries))
	}
	for i, row := range in.R {
		if len(row) != n {
			return fmt.Errorf("extract: score row %d has %d entries, want %d", i, len(row), n)
		}
	}
	if len(in.Combined) != n {
		return fmt.Errorf("extract: combined scores have %d entries, want %d", len(in.Combined), n)
	}
	if in.Budget <= 0 {
		return fmt.Errorf("%w: extract: budget %d must be positive", fault.ErrBadConfig, in.Budget)
	}
	if in.K < 1 {
		in.K = 1
	}
	if in.K > len(in.Queries) {
		in.K = len(in.Queries)
	}
	return nil
}

// activeSources returns the indices (into R) of the k sources with the
// largest individual score at pd, i.e. the sources q_i with
// r(i, pd) ≥ r^(k)(i, pd). Ties resolve by source order, so exactly k
// sources are active (footnote 2 of the paper).
func activeSources(R [][]float64, pd, k int) []int {
	idx := make([]int, len(R))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return R[idx[a]][pd] > R[idx[b]][pd]
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// dedupePathEdges removes duplicate path edges while keeping first-seen
// order.
func dedupePathEdges(sub *graph.Subgraph) {
	seen := make(map[[2]int]bool, len(sub.PathEdges))
	out := sub.PathEdges[:0]
	for _, e := range sub.PathEdges {
		key := [2]int{e.U, e.V}
		if !seen[key] {
			seen[key] = true
			out = append(out, e)
		}
	}
	sub.PathEdges = out
}
