package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"ceps/internal/fault"
	"ceps/internal/graph"
	"ceps/internal/obs"
	"ceps/internal/partition"
)

// Partitioned is the one-time pre-partitioning state of Fast CePS
// (Table 5, Step 0). Build it once per graph with PrePartition; queries
// then run against the union of the partitions that contain the query
// nodes, which is dramatically smaller than the whole graph because RWR
// scores are skewed toward the query's neighborhood (§6).
type Partitioned struct {
	// G is the full graph.
	G *graph.Graph
	// Partition is the k-way partition of G.
	Partition *partition.Result
	// PartitionTime is the one-time cost of Step 0.
	PartitionTime time.Duration
	// NoFallback disables the graceful degradation to full-graph CePS:
	// instead of answering a query whose partition union is degenerate on
	// the full graph (recording the fallback in the Result), CePS returns
	// an error wrapping fault.ErrDegeneratePartition. Leave false in
	// production; tests and strict benchmarks set it.
	NoFallback bool

	// id is a unique non-zero identity stamped by PrePartition, used to
	// derive cache key spaces for solves on this state's induced unions.
	// Zero (hand-built literals) is safe: engines purge their cache when
	// partition state is swapped in.
	id uint64
}

// PrePartition splits g into p parts (Table 5 Step 0). The partitioning is
// deterministic for a fixed opts.Seed.
func PrePartition(g *graph.Graph, p int, opts partition.Options) (*Partitioned, error) {
	return PrePartitionCtx(context.Background(), g, p, opts)
}

// PrePartitionCtx is PrePartition with cooperative cancellation, checked
// between the recursive bisections of the multilevel partitioner.
func PrePartitionCtx(ctx context.Context, g *graph.Graph, p int, opts partition.Options) (*Partitioned, error) {
	if g == nil {
		return nil, fmt.Errorf("%w: nil graph", fault.ErrBadQuery)
	}
	start := time.Now()
	part, err := partition.KWayCtx(ctx, g, p, opts)
	if err != nil {
		return nil, err
	}
	return &Partitioned{
		G:             g,
		Partition:     part,
		PartitionTime: time.Since(start),
		id:            partitionedID.Add(1),
	}, nil
}

// CePS answers a query with the Fast CePS pipeline (Table 5 Steps 1–2):
// materialize the union of partitions containing the query nodes as a new
// weighted graph nW, then run plain CePS on it. The returned Result's
// Subgraph is remapped to original graph ids; the score vectors remain in
// working-graph ids with ToOrig giving the mapping.
func (pt *Partitioned) CePS(queries []int, cfg Config) (*Result, error) {
	return pt.CePSCtx(context.Background(), queries, cfg)
}

// CePSCtx is the context-aware Fast CePS query path with graceful
// degradation. When the partition union is degenerate — the partitioner
// state is missing or malformed, the union is empty or lost a query node,
// or the query nodes are disconnected inside the union while the paper's
// pipeline needs walk mass to flow between them — the query is re-run on
// the full graph and the substitution is recorded in Result.Fallback
// instead of surfacing an error (unless NoFallback is set). Context
// cancellation and numerical faults are never degraded: they propagate as
// typed errors.
func (pt *Partitioned) CePSCtx(ctx context.Context, queries []int, cfg Config) (*Result, error) {
	return pt.CePSServingCtx(ctx, queries, cfg, Serving{})
}

// CePSServingCtx is CePSCtx with an attached serving layer: the induced
// union's per-source score vectors are resolved through the shared cache
// (keyed by the partition identity and part set, so repeat queries over
// the same communities skip their solves) and fresh solves run under the
// shared pool's concurrency bound. A zero Serving is plain CePSCtx. A
// query whose union is degenerate falls back to the full graph on
// sv.FullGraph's runner when one is set and walks pt.G — the runner's
// cached transition matrix and its own cache, pool, coalescer and
// artifacts — and otherwise on a query-local solver, uncached.
func (pt *Partitioned) CePSServingCtx(ctx context.Context, queries []int, cfg Config, sv Serving) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkQueries(pt.G, queries); err != nil {
		return nil, err
	}
	start := time.Now()

	_, partSpan := obs.StartSpan(ctx, "partition")
	work, toOrig, workQueries, parts, why := pt.queryUnion(queries)
	unionDur := time.Since(start)
	if why != "" {
		partSpan.SetAttr(obs.Str("fallback_reason", why))
		if pt.NoFallback {
			err := fmt.Errorf("%w: %s", fault.ErrDegeneratePartition, why)
			partSpan.SetError(err)
			partSpan.End()
			return nil, err
		}
		partSpan.End()
		res, err := pt.fullGraph(ctx, queries, cfg, sv)
		if err != nil {
			return nil, err
		}
		res.Queries = append([]int(nil), queries...)
		res.WorkQueries = append([]int(nil), queries...)
		res.Fallback = &Fallback{From: "fast-ceps", To: "full-ceps", Reason: why}
		res.Degraded = &Degradation{Mode: "full_graph_fallback", Reason: why}
		res.Stages.Partition = unionDur
		res.Elapsed = time.Since(start)
		return res, nil
	}

	partSpan.SetAttr(obs.Int("union_nodes", work.N()), obs.Int("graph_nodes", pt.G.N()),
		obs.Int("parts", len(parts)))
	partSpan.End()

	// parts comes from queryUnion — the same set that induced work — so the
	// cache key space can never drift from the union it describes.
	res, err := runPipeline(ctx, work, workQueries, cfg, sv, unionSpace(cfg.RWR, pt.id, parts))
	if err != nil {
		return nil, err
	}
	res.Queries = append([]int(nil), queries...)
	res.WorkQueries = workQueries
	res.ToOrig = toOrig
	res.Stages.Partition = unionDur
	remapSubgraph(res.Subgraph, toOrig)
	res.Subgraph.FillInduced(pt.G)
	res.Elapsed = time.Since(start)
	return res, nil
}

// fullGraph answers a query on the full graph for a degenerate union: on
// sv.FullGraph's runner when there is one over pt.G, otherwise on a
// query-local solver.
func (pt *Partitioned) fullGraph(ctx context.Context, queries []int, cfg Config, sv Serving) (*Result, error) {
	if sv.FullGraph != nil {
		r, err := sv.FullGraph(cfg.RWR)
		if err != nil {
			return nil, err
		}
		if r.Graph() == pt.G {
			return r.QueryCtx(ctx, queries, cfg)
		}
	}
	return runPipeline(ctx, pt.G, queries, cfg, Serving{}, 0)
}

// queryUnion materializes the partition union for a query set (Table 5
// Step 1) and vets it. It returns the part set that induced the union —
// callers deriving a cache key space must use exactly this set, never a
// recomputation that could drift from the induced graph. A non-empty
// reason means the union cannot answer the query and the caller should
// fall back to the full graph.
func (pt *Partitioned) queryUnion(queries []int) (work *graph.Graph, toOrig []int, workQueries []int, parts []int, reason string) {
	if inj := fault.ActiveInjector(); inj != nil && inj.Fire(fault.InjectPartitionDegenerate) {
		return nil, nil, nil, nil, "injected partition degeneracy"
	}
	if pt.Partition == nil {
		return nil, nil, nil, nil, "no partition state (partitioner failed or was never run)"
	}
	if len(pt.Partition.Assign) != pt.G.N() {
		return nil, nil, nil, nil, fmt.Sprintf("partition assigns %d nodes but the graph has %d", len(pt.Partition.Assign), pt.G.N())
	}
	parts = pt.Partition.PartsContaining(queries)
	nodes := pt.Partition.NodesInParts(parts)
	if len(nodes) == 0 {
		return nil, nil, nil, nil, "empty partition union"
	}
	var err error
	work, toOrig, err = pt.G.InducedIDs(nodes)
	if err != nil {
		return nil, nil, nil, nil, fmt.Sprintf("inducing the partition union failed: %v", err)
	}
	workQueries = make([]int, len(queries))
	for i, q := range queries {
		wq, ok := slices.BinarySearch(toOrig, q)
		if !ok {
			return nil, nil, nil, nil, fmt.Sprintf("query node %d missing from its own partition", q)
		}
		workQueries[i] = wq
	}
	// The pipeline needs walk mass to flow between the query nodes: queries
	// that the union separates (or strands with no edges at all) would get
	// a near-zero combined score even though the full graph connects them.
	if len(workQueries) > 1 {
		if !work.SameComponent(workQueries) {
			return nil, nil, nil, nil, "query nodes disconnected inside the partition union"
		}
	} else if work.Degree(workQueries[0]) == 0 && pt.G.Degree(queries[0]) > 0 {
		return nil, nil, nil, nil, fmt.Sprintf("query node %d isolated inside the partition union", queries[0])
	}
	return work, toOrig, workQueries, parts, ""
}

// remapSubgraph rewrites a subgraph from working ids to original ids.
func remapSubgraph(sub *graph.Subgraph, toOrig []int) {
	for i, u := range sub.Nodes {
		sub.Nodes[i] = toOrig[u]
	}
	for i, e := range sub.PathEdges {
		u, v := toOrig[e.U], toOrig[e.V]
		if u > v {
			u, v = v, u
		}
		sub.PathEdges[i] = graph.Edge{U: u, V: v, W: e.W}
	}
	// InducedEdges are refilled against the original graph by the caller.
	sub.InducedEdges = sub.InducedEdges[:0]
}
