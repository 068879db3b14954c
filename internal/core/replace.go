package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"ceps/internal/bipartite"
	"ceps/internal/fault"
	"ceps/internal/graph"
	"ceps/internal/obs"
	"ceps/internal/rwr"
)

// This file implements the title paper's own workload — Subteam
// Replacement — as a first-class query type on the Runner. Given a team,
// the members departing from it, and a candidate pool, each candidate c is
// scored by a weighted combination of two kernels (REFORM's decomposition
// of the replacement score into graph-similarity components):
//
//   - RWR proximity: the mean random-walk-with-restart score from c to the
//     remaining members, r(c, m). Step 1 runs in two phases under one
//     solve span. The rank phase resolves the walks from the ≤ |team| − 1
//     remaining members and, through the solver's reversibility
//     certificate r(c, m) ≈ (X_c/X_m)·r(m, c) with a rigorous error bound,
//     proves which candidates can still reach the top N. The exact phase
//     then resolves candidate-sourced walks for those alone (≈ N of
//     them). Both phases ride the same serving funnel every other query
//     type uses — score cache, bounded solve pool, cross-request
//     coalescer — and every returned score is bit-identical to solving
//     the whole pool, with those layers on or off.
//   - Structural overlap: the shared-collaborator kernel against the
//     departed members — co-authored-paper counts when a bipartite
//     author–paper substrate is attached, otherwise a weighted
//     common-neighbor kernel on the projected graph.
//
// The default candidate pool is the 2-hop neighborhood of the remaining
// team; a densest-subgraph seeding variant (Charikar's greedy peeling, per
// Fang et al.) and an explicit caller-supplied pool are the alternatives.

// ReplacePool selects the candidate-pool strategy.
type ReplacePool int

const (
	// PoolTwoHop (the default) takes every node within two hops of the
	// remaining team, excluding the team itself.
	PoolTwoHop ReplacePool = iota
	// PoolDensest seeds the pool from the densest subgraph (by greedy
	// peeling) of the two-hop neighborhood induced together with the
	// remaining team — candidates embedded in the team's densest
	// collaboration cluster.
	PoolDensest
	// PoolExplicit uses the caller-supplied candidate list verbatim
	// (minus any team members).
	PoolExplicit
)

// String names the strategy for metrics labels and result fields.
func (p ReplacePool) String() string {
	switch p {
	case PoolDensest:
		return "densest"
	case PoolExplicit:
		return "explicit"
	default:
		return "two_hop"
	}
}

// ReplaceWeights blends the two score components. Both must be
// non-negative and at least one positive; they need not sum to 1 (each
// component is max-normalized over the pool before blending).
type ReplaceWeights struct {
	// RWR weighs the random-walk proximity of a candidate to the
	// remaining team.
	RWR float64
	// Overlap weighs the structural overlap of a candidate with the
	// departed members.
	Overlap float64
}

// DefaultReplaceWeights leans on the walk (which sees the whole graph)
// with a meaningful structural-overlap correction toward candidates who
// already share collaborators or papers with the departed members.
func DefaultReplaceWeights() ReplaceWeights { return ReplaceWeights{RWR: 0.7, Overlap: 0.3} }

// DefaultMaxReplaceCandidates caps the scored pool when the caller does
// not: two-hop neighborhoods on dense graphs can reach thousands of nodes,
// and every candidate costs overlap and bounds work, and a walk of its own
// whenever the top-N certificate is off.
const DefaultMaxReplaceCandidates = 256

// ReplaceSpec is one subteam-replacement query.
type ReplaceSpec struct {
	// Team is the full team before the departure (node ids).
	Team []int
	// Departing lists the members leaving; must be a non-empty strict
	// subset of Team.
	Departing []int
	// Candidates is the explicit candidate pool (PoolExplicit); team
	// members are filtered out. Empty means "build the pool with the
	// configured strategy".
	Candidates []int
	// Pool selects the pool-building strategy when Candidates is empty.
	Pool ReplacePool
	// MaxCandidates caps the scored pool (0 = DefaultMaxReplaceCandidates,
	// negative = no cap). Pool order is deterministic, so the cap is too.
	MaxCandidates int
	// TopN bounds the returned ranking (0 = 10, negative = all).
	TopN int
	// Weights blends the components; the zero value means
	// DefaultReplaceWeights.
	Weights ReplaceWeights
	// Bipartite, when non-nil, switches the overlap kernel to
	// co-authored-paper counts on the author–paper incidence structure.
	// Authors beyond its range fall back to the projected-graph kernel.
	Bipartite *bipartite.Graph
}

// Replacement is one ranked candidate with its score breakdown.
type Replacement struct {
	// Node is the candidate's node id.
	Node int
	// Score is the blended, max-normalized score in [0, 1].
	Score float64
	// RWRProximity is the raw mean walk score from the candidate to the
	// remaining members.
	RWRProximity float64
	// Overlap is the raw structural-overlap kernel value against the
	// departed members.
	Overlap float64
}

// ReplaceResult is the outcome of one subteam-replacement query.
type ReplaceResult struct {
	// Replacements is the ranking, best first (ties broken by node id).
	Replacements []Replacement
	// Team, Departing and Remaining echo the resolved query (private
	// copies).
	Team, Departing, Remaining []int
	// PoolStrategy names how the candidate pool was built
	// ("two_hop" | "densest" | "explicit").
	PoolStrategy string
	// PoolSize is the number of candidates scored (after the cap).
	PoolSize int
	// Stages attributes Elapsed to the pipeline stages: Partition is pool
	// construction, Solve both Step 1 phases (the member walks and the
	// candidate walks), Combine the overlap, the top-N selection, the
	// blend and the ranking. Cache and coalescer counters sum both
	// phases' trips through the serving layer.
	Stages StageTimings
	// Degraded is non-nil when the panel was solved at reduced fidelity
	// (the resilience layer's relaxed-tolerance path).
	Degraded *Degradation
	// Elapsed is the wall-clock response time.
	Elapsed time.Duration
	// TraceID is the span-trace id, "" when tracing is off (set by the
	// Engine).
	TraceID string
}

// normalizeWeights validates and defaults the blend weights.
func normalizeWeights(w ReplaceWeights) (ReplaceWeights, error) {
	if w == (ReplaceWeights{}) {
		return DefaultReplaceWeights(), nil
	}
	if w.RWR < 0 || w.Overlap < 0 || !(w.RWR+w.Overlap > 0) {
		return w, fmt.Errorf("%w: replacement score weights (rwr=%g, overlap=%g) must be non-negative with a positive sum", fault.ErrBadConfig, w.RWR, w.Overlap)
	}
	return w, nil
}

// resolveReplaceSpec validates a spec against the graph and splits the
// team into remaining and departing member sets.
func resolveReplaceSpec(g *graph.Graph, spec ReplaceSpec) (remaining, departing []int, err error) {
	if err := checkQueries(g, spec.Team); err != nil {
		return nil, nil, err
	}
	if len(spec.Departing) == 0 {
		return nil, nil, fmt.Errorf("%w: no departing members given", fault.ErrBadQuery)
	}
	inTeam := make(map[int]bool, len(spec.Team))
	for _, m := range spec.Team {
		inTeam[m] = true
	}
	leaving := make(map[int]bool, len(spec.Departing))
	for _, d := range spec.Departing {
		if !inTeam[d] {
			return nil, nil, fmt.Errorf("%w: departing member %d is not on the team", fault.ErrBadQuery, d)
		}
		if leaving[d] {
			return nil, nil, fmt.Errorf("%w: duplicate departing member %d", fault.ErrBadQuery, d)
		}
		leaving[d] = true
		departing = append(departing, d)
	}
	for _, m := range spec.Team {
		if !leaving[m] {
			remaining = append(remaining, m)
		}
	}
	if len(remaining) == 0 {
		return nil, nil, fmt.Errorf("%w: every team member is departing; no remaining subteam to anchor the walk", fault.ErrBadQuery)
	}
	return remaining, departing, nil
}

// buildReplacePool constructs the deterministic candidate pool for a
// resolved spec. Team members never appear in the pool.
func buildReplacePool(g *graph.Graph, spec ReplaceSpec, remaining []int) ([]int, ReplacePool, error) {
	inTeam := make(map[int]bool, len(spec.Team))
	for _, m := range spec.Team {
		inTeam[m] = true
	}
	var pool []int
	strategy := spec.Pool
	if len(spec.Candidates) > 0 {
		strategy = PoolExplicit
		seen := make(map[int]bool, len(spec.Candidates))
		for _, c := range spec.Candidates {
			if c < 0 || c >= g.N() {
				return nil, strategy, fmt.Errorf("%w: candidate %d out of range [0,%d)", fault.ErrBadQuery, c, g.N())
			}
			if inTeam[c] || seen[c] {
				continue
			}
			seen[c] = true
			pool = append(pool, c)
		}
	} else {
		pool = twoHopPool(g, remaining, inTeam)
		if strategy == PoolDensest {
			if dense := densestPool(g, remaining, pool, inTeam); len(dense) > 0 {
				pool = dense
			}
		}
	}
	if len(pool) == 0 {
		return nil, strategy, fmt.Errorf("%w: empty candidate pool (no non-team nodes within reach; supply candidates explicitly)", fault.ErrBadQuery)
	}
	max := spec.MaxCandidates
	if max == 0 {
		max = DefaultMaxReplaceCandidates
	}
	if max > 0 && len(pool) > max {
		pool = pool[:max]
	}
	// The panel order is ascending node id: deterministic regardless of
	// strategy, and contiguous sources batch better in the blocked kernel.
	pool = append([]int(nil), pool...)
	sort.Ints(pool)
	return pool, strategy, nil
}

// twoHopPool returns the nodes within two hops of the remaining team,
// excluding the team, in BFS order (closer candidates first, so a pool cap
// keeps the nearest ones).
func twoHopPool(g *graph.Graph, remaining []int, inTeam map[int]bool) []int {
	var pool []int
	g.BFS(remaining, func(node, dist int) {
		if dist == 0 || dist > 2 || inTeam[node] {
			return
		}
		pool = append(pool, node)
	})
	return pool
}

// densestPool seeds candidates from the densest subgraph of the two-hop
// neighborhood united with the remaining team: Charikar's greedy peeling
// (repeatedly remove the minimum-weighted-degree node; the best-density
// prefix is a 1/2-approximation of the densest subgraph). Determinism:
// ties peel the smallest induced id, and the result is reported in
// ascending original id order.
func densestPool(g *graph.Graph, remaining, twoHop []int, inTeam map[int]bool) []int {
	nodes := append(append([]int(nil), remaining...), twoHop...)
	sort.Ints(nodes)
	sub, orig, err := g.InducedIDs(nodes)
	if err != nil || sub.N() == 0 {
		return nil
	}
	n := sub.N()
	deg := make([]float64, n)
	var curW float64
	for u := 0; u < n; u++ {
		deg[u] = sub.WeightedDegree(u)
		curW += deg[u]
	}
	curW /= 2
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	removed := make([]int, 0, n)
	bestDensity := curW / float64(n)
	bestRemoved := 0
	for m := n; m > 1; m-- {
		// Lazy min scan: O(n) per round, O(n²) total — fine for the
		// neighborhood scales a seeding pass runs at.
		min := -1
		for u := 0; u < n; u++ {
			if alive[u] && (min < 0 || deg[u] < deg[min]) {
				min = u
			}
		}
		alive[min] = false
		curW -= deg[min]
		nbrs, wts := sub.Neighbors(min)
		for i, v := range nbrs {
			if alive[v] {
				deg[v] -= wts[i]
			}
		}
		removed = append(removed, min)
		if d := curW / float64(m-1); d > bestDensity {
			bestDensity = d
			bestRemoved = len(removed)
		}
	}
	peeled := make(map[int]bool, bestRemoved)
	for _, u := range removed[:bestRemoved] {
		peeled[u] = true
	}
	var pool []int
	for u := 0; u < n; u++ {
		if !peeled[u] && !inTeam[orig[u]] {
			pool = append(pool, orig[u])
		}
	}
	return pool
}

// overlapScore computes the structural-overlap kernel of candidate c
// against the departed members: co-authored-paper counts on the bipartite
// substrate when one covers both endpoints, otherwise the projected-graph
// kernel — direct edge weight plus the weighted common-neighbor mass
// Σ min(w(c,u), w(d,u)) over shared collaborators u.
func overlapScore(g *graph.Graph, bp *bipartite.Graph, c int, departing []int) float64 {
	var total float64
	for _, d := range departing {
		if bp != nil && c < bp.Authors() && d < bp.Authors() {
			total += float64(bp.CoAuthoredPapers(c, d))
			continue
		}
		total += g.Weight(c, d)
		cn, cw := g.Neighbors(c)
		dn, dw := g.Neighbors(d)
		i, j := 0, 0
		for i < len(cn) && j < len(dn) {
			switch {
			case cn[i] == dn[j]:
				if cw[i] < dw[j] {
					total += cw[i]
				} else {
					total += dw[j]
				}
				i++
				j++
			case cn[i] < dn[j]:
				i++
			default:
				j++
			}
		}
	}
	return total
}

// ReplaceSubteam answers a subteam-replacement query with the cached
// solver; see ReplaceSubteamCtx.
func (r *Runner) ReplaceSubteam(spec ReplaceSpec, cfg Config) (*ReplaceResult, error) {
	return r.ReplaceSubteamCtx(context.Background(), spec, cfg)
}

// ReplaceSubteamCtx scores and ranks replacement candidates for the
// departing members of spec.Team. Step 1 solves through the same serving
// funnel as every other query type (cache, pool, coalescer); the ranking
// is bit-identical with those layers on or off, and a top-N answer is
// bit-identical to the first N of the whole pool's ranking. Pool
// construction and ranking are deterministic. cfg.RWR must match the
// Runner's baked configuration.
func (r *Runner) ReplaceSubteamCtx(ctx context.Context, spec ReplaceSpec, cfg Config) (*ReplaceResult, error) {
	if err := r.check(spec.Team, cfg); err != nil {
		return nil, err
	}
	weights, err := normalizeWeights(spec.Weights)
	if err != nil {
		return nil, err
	}
	remaining, departing, err := resolveReplaceSpec(r.g, spec)
	if err != nil {
		return nil, err
	}
	start := time.Now()

	_, poolSpan := obs.StartSpan(ctx, "replace_pool")
	poolStart := time.Now()
	pool, strategy, err := buildReplacePool(r.g, spec, remaining)
	poolDur := time.Since(poolStart)
	if err != nil {
		poolSpan.SetError(err)
		poolSpan.End()
		return nil, err
	}
	poolSpan.SetAttr(obs.Str("strategy", strategy.String()), obs.Int("candidates", len(pool)))
	poolSpan.End()
	topN := spec.TopN
	if topN == 0 {
		topN = 10
	}

	// Overlap is cheap and exact, so every candidate gets it up front: the
	// rank phase bounds blended scores with it.
	stages := StageTimings{Partition: poolDur}
	overlapStart := time.Now()
	ov := make([]float64, len(pool))
	var maxOverlap float64
	for i, c := range pool {
		ov[i] = overlapScore(r.g, spec.Bipartite, c, departing)
		maxOverlap = max(maxOverlap, ov[i])
	}
	stages.Combine = time.Since(overlapStart)

	// Step 1: the candidates that can reach the top N, and their exact
	// proximities.
	sel := replaceSelection{weights: weights, ov: ov, maxOverlap: maxOverlap, topN: topN}
	exact, prox, certified, err := r.replaceStep1(ctx, cfg, pool, remaining, sel, &stages)
	if err != nil {
		return nil, err
	}
	if span := obs.SpanFromContext(ctx); span.Recording() {
		span.SetAttr(obs.Int("exact_set", len(exact)), obs.Bool("certified", certified))
	}

	// Step 2: blend the two kernels and rank. The exact set holds every
	// candidate that can be the proximity maximum, so maxProx is the
	// pool's.
	_, scoreSpan := obs.StartSpan(ctx, "replace_score")
	scoreStart := time.Now()
	if err := ctx.Err(); err != nil {
		err = fault.FromContext(ctx)
		scoreSpan.SetError(err)
		scoreSpan.End()
		return nil, err
	}
	var maxProx float64
	for _, p := range prox {
		maxProx = max(maxProx, p)
	}
	reps := make([]Replacement, len(exact))
	for k, i := range exact {
		reps[k] = Replacement{
			Node:         pool[i],
			Score:        weights.blend(prox[k], maxProx, ov[i], maxOverlap),
			RWRProximity: prox[k],
			Overlap:      ov[i],
		}
	}
	sort.SliceStable(reps, func(a, b int) bool {
		if reps[a].Score != reps[b].Score {
			return reps[a].Score > reps[b].Score
		}
		return reps[a].Node < reps[b].Node
	})
	if topN > 0 && len(reps) > topN {
		reps = reps[:topN]
	}
	scoreSpan.SetAttr(obs.Int("ranked", len(reps)))
	scoreSpan.End()
	stages.Combine += time.Since(scoreStart)

	return &ReplaceResult{
		Replacements: reps,
		Team:         append([]int(nil), spec.Team...),
		Departing:    departing,
		Remaining:    remaining,
		PoolStrategy: strategy.String(),
		PoolSize:     len(pool),
		Stages:       stages,
		Elapsed:      time.Since(start),
	}, nil
}

// blend is one candidate's replacement score: each component
// max-normalized over the pool, weighted, and divided by the weight sum.
// Every operation is monotone in prox and ov and antitone in the maxima,
// which is what lets selectExact bound scores by calling it on interval
// endpoints.
func (w ReplaceWeights) blend(prox, maxProx, ov, maxOverlap float64) float64 {
	var s float64
	if maxProx > 0 {
		s += w.RWR * (prox / maxProx)
	}
	if maxOverlap > 0 {
		s += w.Overlap * (ov / maxOverlap)
	}
	return s / (w.RWR + w.Overlap)
}

// proximity is the mean of a candidate's walk scores to the remaining
// members, summed in member order. Additions and the division are
// monotone, so calling it on per-member interval endpoints bounds the
// computed mean.
func proximity(terms []float64) float64 {
	var p float64
	for _, v := range terms {
		p += v
	}
	return p / float64(len(terms))
}

// replaceSelection is what the rank phase needs beyond the proximities:
// the exact overlaps, the blend, and the ranking depth.
type replaceSelection struct {
	weights    ReplaceWeights
	ov         []float64
	maxOverlap float64
	topN       int
}

// replaceStep1 resolves the candidate proximities. It returns the pool
// indices solved exactly (ascending), their proximities, and whether the
// certificate narrowed the set. Without a certificate — see certificate —
// the exact set is the whole pool, one candidate-sourced walk each, as
// the plain pipeline has always solved it. Both phases run under one
// solve span; selection time counts toward st.Combine.
func (r *Runner) replaceStep1(ctx context.Context, cfg Config, pool, remaining []int, sel replaceSelection, st *StageTimings) (exact []int, prox []float64, certified bool, err error) {
	exact = make([]int, len(pool))
	for i := range exact {
		exact[i] = i
	}
	solveCtx, span := obs.StartSpan(ctx, "solve")
	var stats rwr.ServeStats
	resolved := 0
	if rv, ok := r.certificate(sel.topN, len(pool), remaining); ok {
		var Rm [][]float64
		Rm, _, _, err = serveStep(solveCtx, r.solver, remaining, r.sv, r.space, st, &stats, nil)
		if err != nil {
			endSolve(span, st, stats, err)
			return nil, nil, false, err
		}
		selStart := time.Now()
		lo, hi := proxBounds(rv, pool, remaining, Rm)
		exact = selectExact(lo, hi, sel)
		st.Combine += time.Since(selStart)
		resolved, certified = len(remaining), true
	}
	queries := make([]int, len(exact))
	for k, i := range exact {
		queries[k] = pool[i]
	}
	R, _, _, err := serveStep(solveCtx, r.solver, queries, r.sv, r.space, st, &stats, nil)
	span.SetAttr(obs.Int("queries", resolved+len(queries)), obs.Int("nodes", r.g.N()))
	endSolve(span, st, stats, err)
	if err != nil {
		return nil, nil, false, err
	}
	return exact, proximities(R, remaining), certified, nil
}

// proximities reads each row's mean walk score to the remaining members.
func proximities(R [][]float64, remaining []int) []float64 {
	terms := make([]float64, len(remaining))
	prox := make([]float64, len(R))
	for k, row := range R {
		for j, m := range remaining {
			terms[j] = row[m]
		}
		prox[k] = proximity(terms)
	}
	return prox
}

// certificate returns the solver's reversibility certificate when the
// rank phase may use it: a ranking shorter than the pool, a solver that
// gives one (Tol = 0), and no isolated remaining member (its X is
// undefined). Every row the serving funnel returns — cached, artifact or
// solved — is the m-sweep iterate the certificate bounds.
func (r *Runner) certificate(topN, poolSize int, remaining []int) (*rwr.Reversibility, bool) {
	if topN < 0 || topN >= poolSize {
		return nil, false
	}
	rv, ok := r.solver.Reversibility()
	if !ok {
		return nil, false
	}
	for _, m := range remaining {
		if !rv.Covers(m) {
			return nil, false
		}
	}
	return rv, true
}

// proxBounds bounds every candidate's computed proximity from the member
// rows (Rm[j] is the walk from remaining[j]): each term r(c, m) through
// the certificate, then the mean with proximity's own arithmetic. A
// candidate the certificate cannot bound (an isolated one) gets
// [0, +Inf): it can be anything, so selectExact always keeps it.
func proxBounds(rv *rwr.Reversibility, pool, remaining []int, Rm [][]float64) (lo, hi []float64) {
	lo, hi = make([]float64, len(pool)), make([]float64, len(pool))
	los, his := make([]float64, len(remaining)), make([]float64, len(remaining))
	for i, c := range pool {
		bounded := true
		for j, m := range remaining {
			var ok bool
			if los[j], his[j], ok = rv.Bound(c, m, Rm[j][c]); !ok {
				bounded = false
				break
			}
		}
		if !bounded {
			lo[i], hi[i] = 0, math.Inf(1)
			continue
		}
		lo[i], hi[i] = proximity(los), proximity(his)
	}
	return lo, hi
}

// scoreSlack widens blended-score bounds by a few ulps, so the selection
// stays sound even where the compiler fuses the blend's multiply-add
// differently at two call sites.
const scoreSlack = 0x1p-49

// selectExact returns, ascending, the candidates whose exact solve can
// change the answer, given bounds lo[i] ≤ prox(i) ≤ hi[i] on their
// computed proximities:
//
//   - every possible proximity maximum: hi reaches the largest lo. The
//     true maximum is among them, so solving them fixes maxProx exactly;
//   - every candidate whose blended-score upper bound reaches the N-th
//     largest lower bound. Any other candidate scores strictly below N
//     candidates, so it cannot be in the top N, whatever the tie-break.
//
// Score bounds come from blend on interval endpoints — the proximity
// bounds, the bounds on maxProx, the exact overlaps — widened by
// scoreSlack.
func selectExact(lo, hi []float64, sel replaceSelection) []int {
	var pLo, pHi float64
	for i := range lo {
		pLo, pHi = max(pLo, lo[i]), max(pHi, hi[i])
	}
	w, n := sel.weights, len(lo)
	sLo, sHi := make([]float64, n), make([]float64, n)
	for i := range lo {
		// prox/maxProx ≤ 1 always; below it, the lower bound divides by
		// the largest possible maximum and the upper by the smallest.
		sLo[i] = w.blend(lo[i], pHi, sel.ov[i], sel.maxOverlap) * (1 - scoreSlack)
		if pLo > 0 {
			sHi[i] = w.blend(min(hi[i], pLo), pLo, sel.ov[i], sel.maxOverlap)
		} else {
			sHi[i] = w.blend(1, 1, sel.ov[i], sel.maxOverlap)
		}
		sHi[i] *= 1 + scoreSlack
	}
	cut := math.Inf(-1)
	if sel.topN > 0 && sel.topN <= n {
		sorted := append([]float64(nil), sLo...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		cut = sorted[sel.topN-1]
	}
	var keep []int
	for i := range lo {
		if hi[i] >= pLo || sHi[i] >= cut {
			keep = append(keep, i)
		}
	}
	return keep
}
