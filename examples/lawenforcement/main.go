// Lawenforcement demonstrates the paper's law-enforcement motivation
// ("find the master-mind criminal, connected to all or most of the current
// suspects") plus the Fast CePS speedup on a larger graph.
//
// A synthetic communication network is generated: cells of associates, a
// handful of lieutenants per cell, and a planted ring-leader who talks to
// the lieutenants of every cell. The demo runs two investigations:
//
//  1. Cross-cell: three suspects from three different cells. An AND query
//     surfaces the ring-leader as their center-piece.
//
//  2. Local: three suspects inside one cell, answered with Fast CePS after
//     a one-time pre-partitioning — the partitions confine the walk to the
//     suspects' own cell, giving a large speedup with minimal quality
//     loss. (Pre-partitioning is exactly wrong for the cross-cell query:
//     the paper's Table 5 picks the partitions containing the queries, and
//     a master-mind outside them cannot be found. The local query is the
//     workload the speedup is designed for.)
//
//     go run ./examples/lawenforcement
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"ceps"
)

const (
	numCells       = 12
	cellSize       = 400
	lieutenantsPer = 3
)

func main() {
	g, leader, cells := buildNetwork()
	fmt.Printf("communication network: %d people, %d links\n\n", g.N(), g.M())

	cfg := ceps.DefaultConfig()
	cfg.Budget = 6
	eng, err := ceps.NewEngine(g, ceps.WithConfig(cfg))
	if err != nil {
		log.Fatal(err)
	}

	// --- Investigation 1: who connects suspects from three cells? ---
	suspects := []int{cells[1][0], cells[4][1], cells[9][2]} // known lieutenants
	fmt.Println("investigation 1: cross-cell suspects")
	for _, s := range suspects {
		fmt.Printf("  [susp] %s\n", g.Label(s))
	}
	ctx := context.Background()
	full, err := eng.Do(ctx, suspects)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full-graph CePS answered in %v:\n", full.Elapsed)
	printSubgraph(g, full, suspects, leader)
	if !full.Subgraph.Has(leader) {
		log.Fatal("demo expectation failed: ring-leader not extracted")
	}

	// --- Investigation 2: local query with Fast CePS ---
	rng := rand.New(rand.NewSource(2))
	local := []int{
		cells[7][10+rng.Intn(50)],
		cells[7][100+rng.Intn(50)],
		cells[7][200+rng.Intn(50)],
	}
	fmt.Println("\ninvestigation 2: suspects inside one cell")
	for _, s := range local {
		fmt.Printf("  [susp] %s\n", g.Label(s))
	}

	fullLocal, err := eng.Do(ctx, local)
	if err != nil {
		log.Fatal(err)
	}
	pt, err := ceps.PrePartition(ctx, g, numCells, ceps.PartitionOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	eng.SetPartitioned(pt)
	fastLocal, err := eng.Do(ctx, local)
	if err != nil {
		log.Fatal(err)
	}
	rel, err := ceps.RelRatio(fullLocal, fastLocal)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full graph: %v   Fast CePS: %v (one-time partition %v)\n",
		fullLocal.Elapsed, fastLocal.Elapsed, pt.PartitionTime)
	fmt.Printf("speedup: %.1fx   quality retained (RelRatio): %.3f\n",
		float64(fullLocal.Elapsed)/float64(fastLocal.Elapsed), rel)
	fmt.Printf("working graph shrank from %d to %d people\n",
		fullLocal.WorkGraph.N(), fastLocal.WorkGraph.N())
	fmt.Println("\nFast CePS subgraph:")
	printSubgraph(g, fastLocal, local, leader)
}

// buildNetwork plants `numCells` cells; each cell's first few members are
// lieutenants who communicate heavily with the ring-leader.
func buildNetwork() (*ceps.Graph, int, [][]int) {
	rng := rand.New(rand.NewSource(7))
	b := ceps.NewBuilder(0)
	leader := b.AddNode("RING-LEADER")
	cells := make([][]int, numCells)
	for c := range cells {
		members := make([]int, cellSize)
		for i := range members {
			role := "member"
			if i < lieutenantsPer {
				role = "lieut "
			}
			members[i] = b.AddNode(fmt.Sprintf("cell%02d-%s%03d", c, role, i))
		}
		cells[c] = members
		// Intra-cell chatter: ring plus random contacts.
		for i, m := range members {
			b.AddEdge(m, members[(i+1)%cellSize], 1+float64(rng.Intn(3)))
			b.AddEdge(m, members[rng.Intn(cellSize)], 1)
			b.AddEdge(m, members[rng.Intn(cellSize)], 1)
		}
		// The leader talks to every lieutenant, heavily.
		for i := 0; i < lieutenantsPer; i++ {
			b.AddEdge(leader, members[i], 8)
		}
		// Weak inter-cell noise so cells are not perfectly separable.
		if c > 0 {
			b.AddEdge(members[rng.Intn(cellSize)], cells[c-1][rng.Intn(cellSize)], 1)
		}
	}
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	return g, leader, cells
}

func printSubgraph(g *ceps.Graph, res *ceps.Result, suspects []int, leader int) {
	isSuspect := map[int]bool{}
	for _, s := range suspects {
		isSuspect[s] = true
	}
	for _, u := range res.Subgraph.Nodes {
		tag := "      "
		switch {
		case isSuspect[u]:
			tag = "[susp]"
		case u == leader:
			tag = "[****]"
		}
		fmt.Printf("  %s %s\n", tag, g.Label(u))
	}
	if res.Subgraph.Has(leader) {
		fmt.Println("  => the ring-leader is the center-piece of the suspects")
	}
}
