package ceps_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"ceps"
)

// TestEngineExtractInvariants checks every answer against what EXTRACT
// (Table 4) promises, not against another serving configuration: on random
// dblpgen substrates, for AND, OR and K_softAND queries on plain, cached,
// coalesced, fast-mode and artifact-backed engines,
//
//   - H holds the queries and at most Budget other nodes;
//   - every path edge is a graph edge and carries its weight;
//   - every other node of H has a Provenance whose path runs from its
//     source query to its destination along path edges and passes through
//     it (work-graph ids, mapped through ToOrig in fast mode);
//   - path edges join every node of H to a query.
//
// Each set is asked three times, so on cached engines the second and third
// asks read cached rows, whose uphill bitmasks EXTRACT then uses; the
// full-graph cached engines must end up holding some.
func TestEngineExtractInvariants(t *testing.T) {
	configs := []struct {
		name     string
		opts     []ceps.Option
		parts    int  // install Fast CePS state with this many parts
		artifact bool // also serve from artifacts covering all but one source
	}{
		{"plain", nil, 0, false},
		{"cached", []ceps.Option{ceps.WithCache(16 << 20)}, 0, false},
		{"coalesced", []ceps.Option{ceps.WithCache(16 << 20),
			ceps.WithCoalescing(ceps.CoalesceOptions{MaxWait: time.Millisecond})}, 0, false},
		{"fast", []ceps.Option{ceps.WithCache(16 << 20)}, 6, false},
		{"artifact", []ceps.Option{ceps.WithCache(16 << 20)}, 0, true},
	}
	var checked, fastUnions, extracted int
	for seed := int64(1); seed <= 2; seed++ {
		dcfg := ceps.ScaleDBLP(ceps.DefaultDBLPConfig(), 0.1)
		dcfg.Seed = seed
		ds, err := ceps.GenerateDBLP(dcfg)
		if err != nil {
			t.Fatal(err)
		}
		g := ds.Graph
		rng := rand.New(rand.NewSource(seed))
		var sets [][]int
		for q := 2; q <= 4; q++ {
			set, err := ds.RandomQueries(rng, q, true)
			if err != nil {
				t.Fatal(err)
			}
			sets = append(sets, set)
		}
		for _, c := range configs {
			cfg := quickConfig()
			cfg.Budget = 12
			opts := append([]ceps.Option{ceps.WithConfig(cfg)}, c.opts...)
			if c.artifact {
				opts = append(opts, ceps.WithArtifactDir(buildArtifactDir(t, g, cfg.RWR, 0, 0, panelBudget(g))))
			}
			eng := newEngine(t, g, opts...)
			if c.parts > 0 {
				setPartitions(t, eng, c.parts)
			}
			for _, set := range sets {
				for _, k := range []int{0, 1, len(set) - 1} { // AND, OR, K_softAND
					label := fmt.Sprintf("seed %d %s %v k=%d", seed, c.name, set, k)
					res, err := eng.Do(context.Background(), set, ceps.WithK(k))
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					checkExtractInvariants(t, label, g, res, cfg.Budget)
					extracted += len(res.Subgraph.Nodes) - len(set)
					checked++
					if res.ToOrig != nil {
						fastUnions++
					}
				}
			}
			// The cache charges a vector 8 bytes per score and 128 bytes
			// of overhead; what is left are the uphill bitmasks.
			if st, ok := eng.CacheStats(); ok && c.name != "fast" &&
				st.BytesUsed <= int64(st.Entries)*int64(8*g.N()+128) {
				t.Fatalf("seed %d %s: cache %+v holds no uphill bitmask", seed, c.name, st)
			}
			eng.Close()
		}
	}
	// The invariants mean little unless paths were extracted, some of them
	// on Fast CePS unions.
	if fastUnions == 0 || extracted < 4*checked {
		t.Fatalf("weak coverage: %d answers, %d on Fast CePS unions, %d extracted nodes", checked, fastUnions, extracted)
	}
}

func checkExtractInvariants(t *testing.T, label string, g *ceps.Graph, res *ceps.Result, budget int) {
	t.Helper()
	sub := res.Subgraph
	inH := map[int]bool{}
	for _, u := range sub.Nodes {
		inH[u] = true
	}
	isQuery := map[int]bool{}
	for _, q := range res.Queries {
		isQuery[q] = true
		if !inH[q] {
			t.Fatalf("%s: query %d is not in H %v", label, q, sub.Nodes)
		}
	}
	if len(inH) != len(sub.Nodes) || len(sub.Nodes)-len(res.Queries) > budget {
		t.Fatalf("%s: H = %v holds %d queries and exceeds budget %d or repeats a node", label, sub.Nodes, len(res.Queries), budget)
	}

	type edge struct{ u, v int }
	onPath := map[edge]bool{}
	adj := map[int][]int{}
	for _, e := range sub.PathEdges {
		if !inH[e.U] || !inH[e.V] {
			t.Fatalf("%s: path edge %d-%d leaves H", label, e.U, e.V)
		}
		if w := g.Weight(e.U, e.V); w == 0 || math.Float64bits(w) != math.Float64bits(e.W) {
			t.Fatalf("%s: path edge %d-%d has weight %v, the graph %v", label, e.U, e.V, e.W, w)
		}
		onPath[edge{e.U, e.V}], onPath[edge{e.V, e.U}] = true, true
		adj[e.U], adj[e.V] = append(adj[e.U], e.V), append(adj[e.V], e.U)
	}

	toWork := map[int]int{}
	for w := range res.WorkGraph.N() {
		toWork[res.OrigID(w)] = w
	}
	for _, u := range sub.Nodes {
		if isQuery[u] {
			continue
		}
		p, ok := res.Extraction.Provenance[toWork[u]]
		if !ok {
			t.Fatalf("%s: node %d has no provenance", label, u)
		}
		path := make([]int, len(p.Path))
		through := false
		for i, w := range p.Path {
			path[i] = res.OrigID(w)
			through = through || path[i] == u
		}
		if p.Source < 0 || p.Source >= len(res.Queries) || len(path) < 2 ||
			path[0] != res.Queries[p.Source] || path[len(path)-1] != res.OrigID(p.Dest) || !through {
			t.Fatalf("%s: node %d's provenance %+v (original ids %v) does not run from query %d to its destination through it",
				label, u, p, path, p.Source)
		}
		for i := 1; i < len(path); i++ {
			if !onPath[edge{path[i-1], path[i]}] {
				t.Fatalf("%s: node %d's provenance path %v steps %d-%d off the path edges", label, u, path, path[i-1], path[i])
			}
		}
	}

	seen := map[int]bool{}
	queue := append([]int(nil), res.Queries...)
	for _, q := range queue {
		seen[q] = true
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	for _, u := range sub.Nodes {
		if !seen[u] {
			t.Fatalf("%s: node %d is not joined to any query by path edges", label, u)
		}
	}
}
