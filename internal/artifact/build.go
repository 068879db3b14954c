package artifact

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"

	"ceps/internal/fault"
	"ceps/internal/graph"
	"ceps/internal/partition"
	"ceps/internal/rwr"
)

// DefaultByteBudget is the per-artifact payload budget when BuildConfig
// leaves it unset: 64 MiB, enough to cover every source of a union up to
// ~2900 nodes and a few thousand top sources beyond that.
const DefaultByteBudget int64 = 64 << 20

// chunkWidth is how many sources one blocked solve takes: the fused
// sweep's column group width (linalg.Sweep), so each chunk streams the
// transition matrix once per sweep and a worker holds O(chunkWidth·N) of
// panel at a time.
const chunkWidth = 16

// BuildConfig parameterizes one offline precompute run (cmd/cepspre).
type BuildConfig struct {
	// RWR is the walk configuration the artifacts are solved under; only
	// an engine running this exact configuration will bind them.
	RWR rwr.Config
	// Partition, when non-nil, produces one artifact per part (the
	// single-part unions Fast CePS serves most queries from). Multi-part
	// unions are not precomputed: they are combinatorially many and rare,
	// and the tier cleanly misses on them.
	Partition *partition.Result
	// IncludeFull also builds a full-graph artifact (always built when
	// Partition is nil — there is nothing else to build).
	IncludeFull bool
	// ByteBudget caps each artifact's row payload; ≤ 0 means
	// DefaultByteBudget. Each unit covers its top-k sources by weighted
	// degree, k = min(N, ByteBudget / (8·N)): every source once 8·N²
	// fits.
	ByteBudget int64
	// Workers bounds build parallelism (concurrent chunk solves of up to
	// 16 sources each); ≤ 0 means GOMAXPROCS.
	Workers int
	// Log (nil for silent) receives per-artifact progress lines.
	Log func(format string, args ...any)
}

// UnitSummary describes one build unit (one part, or the full graph).
type UnitSummary struct {
	// Parts is the part set (nil for the full graph).
	Parts []int
	// File is empty when the unit was skipped.
	File    string
	N       int
	Sources int
	Bytes   int64
	// Skipped + Reason record units the budget could not cover.
	Skipped bool
	Reason  string
}

// BuildResult summarizes a Build run; cmd/cepspre prints it.
type BuildResult struct {
	GraphFP     uint64
	ConfigFP    uint64
	PartitionFP uint64
	Units       []UnitSummary
	Written     int
	Bytes       int64
}

// Build solves the graph (and each partition union) under cfg and writes
// the artifact files plus the index into dir. Solves are deterministic, so
// rebuilding with identical inputs reproduces identical files, whatever
// Workers is; rows are bit-identical to what the serving path computes.
func Build(ctx context.Context, g *graph.Graph, cfg BuildConfig, dir string) (*BuildResult, error) {
	if g == nil {
		return nil, fmt.Errorf("artifact: nil graph")
	}
	if err := cfg.RWR.Validate(); err != nil {
		return nil, err
	}
	if cfg.ByteBudget <= 0 {
		cfg.ByteBudget = DefaultByteBudget
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Log == nil {
		cfg.Log = func(string, ...any) {}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	res := &BuildResult{GraphFP: g.Fingerprint(), ConfigFP: cfg.RWR.Fingerprint()}
	if cfg.Partition != nil {
		res.PartitionFP = cfg.Partition.Fingerprint()
	}

	type unit struct {
		parts []int // nil = full graph
	}
	var units []unit
	if cfg.Partition == nil || cfg.IncludeFull {
		units = append(units, unit{})
	}
	if cfg.Partition != nil {
		for p := 0; p < cfg.Partition.K; p++ {
			units = append(units, unit{parts: []int{p}})
		}
	}

	idx := &index{Version: Version}
	for _, u := range units {
		if err := fault.FromContext(ctx); err != nil {
			return nil, err
		}
		sum, entry, err := buildUnit(ctx, g, cfg, res, u.parts, dir)
		if err != nil {
			return nil, err
		}
		res.Units = append(res.Units, *sum)
		if sum.Skipped {
			cfg.Log("skip %s: %s", unitName(u.parts), sum.Reason)
			continue
		}
		cfg.Log("wrote %s: %s, %d nodes, %d sources, %d bytes",
			unitName(u.parts), sum.File, sum.N, sum.Sources, sum.Bytes)
		idx.Artifacts = append(idx.Artifacts, *entry)
		res.Written++
		res.Bytes += sum.Bytes
	}
	if err := writeIndex(dir, idx); err != nil {
		return nil, fmt.Errorf("artifact: writing %s: %w", IndexFile, err)
	}
	return res, nil
}

func unitName(parts []int) string {
	if parts == nil {
		return "full graph"
	}
	return fmt.Sprintf("parts %v", parts)
}

// buildUnit solves one unit and writes its artifact (or records a skip).
func buildUnit(ctx context.Context, g *graph.Graph, cfg BuildConfig, res *BuildResult, parts []int, dir string) (*UnitSummary, *indexEntry, error) {
	key := Key{GraphFP: res.GraphFP, ConfigFP: res.ConfigFP}
	work := g
	if parts != nil {
		key.PartitionFP = res.PartitionFP
		key.Parts = parts
		nodes := cfg.Partition.NodesInParts(parts)
		if len(nodes) == 0 {
			return &UnitSummary{Parts: parts, Skipped: true, Reason: "empty part"}, nil, nil
		}
		var err error
		work, _, err = g.InducedIDs(nodes)
		if err != nil {
			return nil, nil, fmt.Errorf("artifact: inducing %s: %w", unitName(parts), err)
		}
	}
	n := work.N()
	sum := &UnitSummary{Parts: parts, N: n}
	k := int(min(cfg.ByteBudget/(int64(n)*8), int64(n)))
	if k <= 0 {
		sum.Skipped = true
		sum.Reason = fmt.Sprintf("byte budget %d below one %d-node row", cfg.ByteBudget, n)
		return sum, nil, nil
	}
	solver, err := rwr.NewSolver(work, cfg.RWR)
	if err != nil {
		return nil, nil, fmt.Errorf("artifact: solver for %s: %w", unitName(parts), err)
	}
	sources := topSources(work, k)
	rows, err := computeRows(ctx, solver, sources, cfg.Workers)
	if err != nil {
		return nil, nil, err
	}

	file, bytes, err := writeFile(dir, key, n, 1-cfg.RWR.C, sources, rows)
	if err != nil {
		return nil, nil, fmt.Errorf("artifact: writing %s: %w", unitName(parts), err)
	}
	sum.File, sum.Sources, sum.Bytes = file, len(sources), bytes
	entry := &indexEntry{
		File:        file,
		Class:       classPanelName,
		GraphFP:     fpString(key.GraphFP),
		ConfigFP:    fpString(key.ConfigFP),
		PartitionFP: fpString(key.PartitionFP),
		Parts:       key.Parts,
		N:           n,
		Sources:     len(sources),
		Bytes:       bytes,
	}
	return sum, entry, nil
}

// topSources picks the k sources most worth precomputing — highest
// weighted degree, ties to the lower id (the nodes hot queries hit) — and
// returns them in ascending id order as the format requires.
func topSources(g *graph.Graph, k int) []int {
	ids := make([]int, g.N())
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		da, db := g.WeightedDegree(ids[a]), g.WeightedDegree(ids[b])
		if da != db {
			return da > db
		}
		return ids[a] < ids[b]
	})
	top := append([]int(nil), ids[:k]...)
	sort.Ints(top)
	return top
}

// computeRows solves every source with the blocked kernel, in chunks of
// at most chunkWidth sources and with at most workers chunks in flight,
// preserving source order in the result. Each column of a blocked solve
// is bit-identical to ScoresCtx for its source, so the rows are identical
// across worker counts and chunkings.
func computeRows(ctx context.Context, solver *rwr.Solver, sources []int, workers int) ([][]float64, error) {
	rows := make([][]float64, len(sources))
	chunks := (len(sources) + chunkWidth - 1) / chunkWidth
	solve := func(ctx context.Context, c int) error {
		lo := c * chunkWidth
		hi := min(lo+chunkWidth, len(sources))
		R, _, err := solver.ScoresSetBlockedCtx(ctx, sources[lo:hi], 1)
		if err != nil {
			return err
		}
		copy(rows[lo:hi], R)
		return nil
	}
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		for c := 0; c < chunks; c++ {
			if err := fault.FromContext(ctx); err != nil {
				return nil, err
			}
			if err := solve(ctx, c); err != nil {
				return nil, err
			}
		}
		return rows, nil
	}
	var (
		wg   sync.WaitGroup
		errs = make([]error, workers)
		next = make(chan int)
	)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		defer close(next)
		for c := 0; c < chunks; c++ {
			select {
			case next <- c:
			case <-cctx.Done():
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := range next {
				if err := solve(cctx, c); err != nil {
					errs[w] = err
					cancel()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := fault.FromContext(ctx); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}
