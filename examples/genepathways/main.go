// Genepathways demonstrates the paper's gene-regulatory-network motivation
// ("find the protein that participates in pathways with all or most of the
// given Q proteins") together with two library features beyond the basic
// AND query: automatic K_softAND inference and OR queries.
//
// A synthetic protein-interaction network is generated: pathways (groups
// of co-participating proteins) with shared members, plus one planted
// master regulator participating in several pathways. Three scenarios run:
//
//  1. Query proteins from pathways that share the master regulator — an
//     AND query surfaces it.
//
//  2. The same queries with auto-k: the inference detects that all the
//     queries support each other and picks a strict coefficient.
//
//  3. Query proteins from unrelated pathways — auto-k detects the lack of
//     mutual support and degrades toward an OR query, returning each
//     protein's own pathway context instead of forcing a bogus bridge.
//
//     go run ./examples/genepathways
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"ceps"
)

const (
	numPathways  = 30
	pathwaySize  = 25
	sharedJoints = 4 // proteins shared between adjacent pathways
)

func main() {
	ctx := context.Background()
	g, regulator, pathways := buildNetwork()
	fmt.Printf("protein interaction network: %d proteins, %d interactions\n\n", g.N(), g.M())

	cfg := ceps.DefaultConfig()
	cfg.Budget = 5

	// Scenario 1: regulator-adjacent proteins from the three co-regulated
	// pathways.
	queries := []int{pathways[0][3], pathways[1][4], pathways[2][5]}
	fmt.Println("scenario 1: proteins from three co-regulated pathways (AND query)")
	res, err := ceps.Query(ctx, g, queries, cfg)
	if err != nil {
		log.Fatal(err)
	}
	show(g, res, queries, regulator)
	if !res.Subgraph.Has(regulator) {
		log.Fatal("demo expectation failed: master regulator not found")
	}

	// Scenario 2: same queries, coefficient inferred automatically. The
	// proteins co-participate only *indirectly* (through the regulator and
	// shared complex members), so the support threshold is lowered from
	// the 1% default to 0.2% — appropriate when relatedness is expected to
	// be mediated rather than direct.
	const tau = 0.002
	fmt.Println("\nscenario 2: same proteins, auto-inferred k (support threshold 0.2%)")
	k, supports, err := ceps.InferK(ctx, g, queries, cfg, tau)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  inferred k = %d (support counts %v) -> %s\n", k, supports,
		func() string { c := cfg; c.K = k; return c.QueryTypeName(len(queries)) }())
	if k != 3 {
		log.Fatal("demo expectation failed: co-regulated proteins should infer AND")
	}
	cfg2 := cfg
	cfg2.K = k
	auto, err := ceps.Query(ctx, g, queries, cfg2)
	if err != nil {
		log.Fatal(err)
	}
	show(g, auto, queries, regulator)

	// Scenario 3: unrelated pathways — auto-k should relax the query.
	far := []int{pathways[10][3], pathways[18][4], pathways[27][5]}
	fmt.Println("\nscenario 3: proteins from three unrelated pathways, same threshold")
	k3, supports3, err := ceps.InferK(ctx, g, far, cfg, tau)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  inferred k = %d (support counts %v)\n", k3, supports3)
	if k3 != 1 {
		log.Fatal("demo expectation failed: unrelated pathways should infer OR")
	}
	cfg3 := cfg
	cfg3.K = k3
	relaxed, err := ceps.Query(ctx, g, far, cfg3)
	if err != nil {
		log.Fatal(err)
	}
	show(g, relaxed, far, regulator)
	fmt.Println("\n=> with unrelated queries the inferred coefficient relaxes toward OR,")
	fmt.Println("   so each protein keeps its own pathway context (no forced bridge).")
}

// buildNetwork creates pathway cliques chained by shared proteins, plus a
// master regulator participating in pathways 0–2.
func buildNetwork() (*ceps.Graph, int, [][]int) {
	rng := rand.New(rand.NewSource(11))
	b := ceps.NewBuilder(0)
	regulator := b.AddNode("MASTER-REGULATOR")
	pathways := make([][]int, numPathways)
	for p := range pathways {
		members := make([]int, pathwaySize)
		for i := range members {
			members[i] = b.AddNode(fmt.Sprintf("P%02d-protein%02d", p, i))
		}
		pathways[p] = members
		// Pathway co-participation: dense random interactions.
		for i := 0; i < pathwaySize; i++ {
			for j := i + 1; j < pathwaySize; j++ {
				if rng.Float64() < 0.3 {
					b.AddEdge(members[i], members[j], 1+float64(rng.Intn(2)))
				}
			}
		}
		// Chain pathways through shared proteins (weak crosstalk).
		if p > 0 {
			for s := 0; s < sharedJoints; s++ {
				b.AddEdge(pathways[p-1][rng.Intn(pathwaySize)], members[rng.Intn(pathwaySize)], 1)
			}
		}
	}
	// The regulator interacts strongly with members of pathways 0–2, and
	// those co-regulated pathways also overlap directly (shared complex
	// members), as real co-regulated pathways do.
	for p := 0; p < 3; p++ {
		for i := 0; i < 6; i++ {
			b.AddEdge(regulator, pathways[p][i], 4)
		}
		for q := p + 1; q < 3; q++ {
			for s := 0; s < 6; s++ {
				b.AddEdge(pathways[p][rng.Intn(8)], pathways[q][rng.Intn(8)], 2)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	return g, regulator, pathways
}

func show(g *ceps.Graph, res *ceps.Result, queries []int, regulator int) {
	isQuery := map[int]bool{}
	for _, q := range queries {
		isQuery[q] = true
	}
	fmt.Printf("  %s query, %d nodes, %v:\n", res.Combiner, res.Subgraph.Size(), res.Elapsed)
	for _, u := range res.Subgraph.Nodes {
		tag := "    "
		switch {
		case isQuery[u]:
			tag = "[Q] "
		case u == regulator:
			tag = "[**]"
		}
		fmt.Printf("    %s %s\n", tag, g.Label(u))
	}
}
