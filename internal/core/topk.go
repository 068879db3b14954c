package core

import (
	"context"
	"sort"

	"ceps/internal/graph"
	"ceps/internal/score"
)

// RankedNode is a node with its combined closeness score r(Q, j).
type RankedNode struct {
	Node  int
	Score float64
}

// TopCenterPieces runs Steps 1–2 of the pipeline only — individual RWR
// scores and combination — and returns the topN highest-scored non-query
// nodes. It answers "who are the center-piece candidates" without paying
// for subgraph extraction, which is what callers ranking or paginating
// candidates (rather than displaying a connection subgraph) want.
func TopCenterPieces(g *graph.Graph, queries []int, cfg Config, topN int) ([]RankedNode, error) {
	return TopCenterPiecesCtx(context.Background(), g, queries, cfg, topN)
}

// TopCenterPiecesCtx is TopCenterPieces with cooperative cancellation of
// the underlying random-walk solves.
func TopCenterPiecesCtx(ctx context.Context, g *graph.Graph, queries []int, cfg Config, topN int) ([]RankedNode, error) {
	r, err := oneShotRunner(g, queries, cfg)
	if err != nil {
		return nil, err
	}
	return r.TopCenterPiecesCtx(ctx, queries, cfg, topN, new(StageTimings))
}

// oneShotRunner validates a one-shot call and builds the runner it solves
// on. The runner carries no serving state, so its Step 1 is solveStep's
// plain path: one blocked panel, the same as every other query path.
func oneShotRunner(g *graph.Graph, queries []int, cfg Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkQueries(g, queries); err != nil {
		return nil, err
	}
	return NewRunner(g, cfg.RWR)
}

// TopCenterPieces is the Runner variant reusing the cached solver.
func (r *Runner) TopCenterPieces(queries []int, cfg Config, topN int) ([]RankedNode, error) {
	return r.TopCenterPiecesCtx(context.Background(), queries, cfg, topN, new(StageTimings))
}

// TopCenterPiecesCtx is the context-aware Runner variant; with serving
// state attached, the per-query vectors come from the shared cache. It
// fills the Step 1 fields of st.
func (r *Runner) TopCenterPiecesCtx(ctx context.Context, queries []int, cfg Config, topN int, st *StageTimings) ([]RankedNode, error) {
	if err := r.check(queries, cfg); err != nil {
		return nil, err
	}
	R, _, _, err := solveStep(ctx, r.solver, queries, r.sv, r.space, st, nil)
	if err != nil {
		return nil, err
	}
	return rankCenterPieces(R, queries, cfg, topN)
}

// rankCenterPieces is Step 2 plus ranking: combine the score matrix and
// return the topN non-query nodes by combined score.
func rankCenterPieces(R [][]float64, queries []int, cfg Config, topN int) ([]RankedNode, error) {
	if topN <= 0 {
		topN = 10
	}
	combined, err := score.CombineNodes(R, cfg.Combiner(len(queries)))
	if err != nil {
		return nil, err
	}
	isQuery := make(map[int]bool, len(queries))
	for _, q := range queries {
		isQuery[q] = true
	}
	ranked := make([]RankedNode, 0, len(combined)-len(queries))
	for j, s := range combined {
		if !isQuery[j] && s > 0 {
			ranked = append(ranked, RankedNode{Node: j, Score: s})
		}
	}
	sort.SliceStable(ranked, func(a, b int) bool { return ranked[a].Score > ranked[b].Score })
	if len(ranked) > topN {
		ranked = ranked[:topN]
	}
	return ranked, nil
}
