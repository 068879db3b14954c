// Package partition provides a from-scratch multilevel k-way graph
// partitioner in the METIS family, which the paper uses (via METIS [20])
// for the Fast CePS pre-partition speedup (§6, Table 5).
//
// The algorithm is multilevel recursive bisection:
//
//  1. Coarsen: repeatedly contract a heavy-edge matching until the graph is
//     small; merged nodes accumulate vertex weight so balance is tracked in
//     original-vertex units.
//  2. Initial partition: greedy graph growing (a BFS region grown from a
//     pseudo-peripheral seed until it holds the target share of vertex
//     weight).
//  3. Uncoarsen + refine: project the bisection back level by level,
//     running boundary Fiduccia–Mattheyses passes (best-prefix move
//     sequences under a balance constraint) at each level.
//
// k-way partitions are obtained by recursive bisection with proportional
// weight targets. Quality is not identical to METIS but is of the same
// character: balanced parts and a small edge cut, which is all Fast CePS
// needs — it only requires that most of a query's random-walk mass lies in
// the query's own partition.
package partition

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"

	"ceps/internal/fault"
	"ceps/internal/graph"
)

// Options tunes the partitioner. The zero value gets sensible defaults.
type Options struct {
	// Seed makes the randomized matching and seeding deterministic.
	Seed int64
	// ImbalanceTol is the allowed multiplicative imbalance per side of
	// each bisection (default 1.10).
	ImbalanceTol float64
	// CoarsenTo stops coarsening once the graph has at most this many
	// nodes (default 100).
	CoarsenTo int
	// RefinePasses is the number of FM passes per uncoarsening level
	// (default 4).
	RefinePasses int
}

func (o *Options) fillDefaults() {
	if o.ImbalanceTol <= 1 {
		o.ImbalanceTol = 1.10
	}
	if o.CoarsenTo <= 0 {
		o.CoarsenTo = 100
	}
	if o.RefinePasses <= 0 {
		o.RefinePasses = 4
	}
}

// Result is a k-way partition of a graph.
type Result struct {
	// Assign maps node id to part id in [0, K).
	Assign []int
	// K is the number of parts.
	K int
	// EdgeCut is the total weight of edges crossing parts.
	EdgeCut float64
	// PartSizes counts nodes per part.
	PartSizes []int
}

// KWay partitions g into k balanced parts.
func KWay(g *graph.Graph, k int, opts Options) (*Result, error) {
	return KWayCtx(context.Background(), g, k, opts)
}

// KWayCtx is KWay with cooperative cancellation: ctx is checked before
// every recursive bisection (each of which runs a full coarsen → grow →
// refine cycle), so a fired deadline aborts between bisections rather
// than running the remaining ones to completion.
func KWayCtx(ctx context.Context, g *graph.Graph, k int, opts Options) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("partition: nil graph")
	}
	if k <= 0 {
		return nil, fmt.Errorf("%w: partition: k = %d must be positive", fault.ErrBadConfig, k)
	}
	if k > g.N() {
		return nil, fmt.Errorf("%w: partition: k = %d exceeds node count %d", fault.ErrBadConfig, k, g.N())
	}
	opts.fillDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))

	mg := fromGraph(g)
	assign := make([]int, g.N())
	if err := bisectRecursive(ctx, mg, identity(g.N()), k, 0, assign, &opts, rng); err != nil {
		return nil, err
	}

	res := &Result{Assign: assign, K: k, PartSizes: make([]int, k)}
	for _, p := range assign {
		res.PartSizes[p]++
	}
	g.ForEachEdge(func(u, v int, w float64) {
		if assign[u] != assign[v] {
			res.EdgeCut += w
		}
	})
	return res, nil
}

// Fingerprint returns a stable 64-bit content hash of the partition: the
// part count and the full node→part assignment. Two Results with equal
// fingerprints induce identical partition unions (NodesInParts returns
// the same node sets), so the fingerprint identifies a partition across
// processes — the offline precompute pipeline (internal/artifact) keys
// per-partition artifacts by it, and an engine only binds an artifact
// when its partition fingerprint matches the live state's.
func (r *Result) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(r.K))
	put(uint64(len(r.Assign)))
	for _, p := range r.Assign {
		put(uint64(p))
	}
	return h.Sum64()
}

// Balance returns the imbalance factor of the partition: the largest part
// size divided by the ideal N/K. 1.0 is perfectly balanced; Fast CePS
// quality depends on partitions staying within a modest factor of ideal.
func (r *Result) Balance() float64 {
	if len(r.PartSizes) == 0 {
		return 0
	}
	max := 0
	total := 0
	for _, sz := range r.PartSizes {
		total += sz
		if sz > max {
			max = sz
		}
	}
	ideal := float64(total) / float64(r.K)
	if ideal == 0 {
		return 0
	}
	return float64(max) / ideal
}

// PartsContaining returns the sorted distinct part ids that the given nodes
// fall into (Table 5 Step 1: "pick up partitions of W that contain all the
// query nodes"). A query set holds a handful of nodes, so sorting their
// part ids and dropping repeats beats any set structure.
func (r *Result) PartsContaining(nodes []int) []int {
	parts := make([]int, len(nodes))
	for i, u := range nodes {
		parts[i] = r.Assign[u]
	}
	slices.Sort(parts)
	return slices.Compact(parts)
}

// NodesInParts returns all node ids assigned to any of the given parts, in
// ascending order: one pass over Assign against a flag per part id. Part
// ids are non-negative; a negative id matches no node.
func (r *Result) NodesInParts(parts []int) []int {
	top := -1
	for _, p := range parts {
		top = max(top, p)
	}
	want := make([]bool, top+1)
	for _, p := range parts {
		if p >= 0 {
			want[p] = true
		}
	}
	var nodes []int
	for u, p := range r.Assign {
		if p >= 0 && p < len(want) && want[p] {
			nodes = append(nodes, u)
		}
	}
	return nodes
}

// identity returns [0, 1, …, n).
func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// bisectRecursive splits mg (whose nodes map to original ids via origIDs)
// into k parts labeled [base, base+k) in assign. It checks ctx before each
// bisection and aborts the whole recursion when the context fires.
func bisectRecursive(ctx context.Context, mg *multigraph, origIDs []int, k, base int, assign []int, opts *Options, rng *rand.Rand) error {
	if k == 1 {
		for _, orig := range origIDs {
			assign[orig] = base
		}
		return nil
	}
	if err := fault.FromContext(ctx); err != nil {
		return err
	}
	kLeft := k / 2
	frac := float64(kLeft) / float64(k)
	side := multilevelBisect(mg, frac, opts, rng)

	leftLocal, rightLocal := make([]int, 0, mg.n), make([]int, 0, mg.n)
	for v := 0; v < mg.n; v++ {
		if side[v] == 0 {
			leftLocal = append(leftLocal, v)
		} else {
			rightLocal = append(rightLocal, v)
		}
	}
	// Degenerate split (can happen on tiny or disconnected graphs): force a
	// non-empty side by moving the lightest nodes.
	if len(leftLocal) == 0 || len(rightLocal) == 0 {
		all := append(leftLocal, rightLocal...)
		sort.Ints(all)
		mid := len(all) * kLeft / k
		if mid == 0 {
			mid = 1
		}
		leftLocal, rightLocal = all[:mid], all[mid:]
	}

	leftG, leftIDs := mg.induce(leftLocal, origIDs)
	rightG, rightIDs := mg.induce(rightLocal, origIDs)
	if err := bisectRecursive(ctx, leftG, leftIDs, kLeft, base, assign, opts, rng); err != nil {
		return err
	}
	return bisectRecursive(ctx, rightG, rightIDs, k-kLeft, base+kLeft, assign, opts, rng)
}
