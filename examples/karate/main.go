// Karate runs CePS on a real (public-domain) social network: Zachary's
// karate club (Zachary 1977), the classic 34-member friendship network
// that later split into two factions around the instructor ("Mr. Hi",
// node 1) and the club officer ("John A.", node 34).
//
// Querying CePS with the two faction leaders as the query nodes should
// surface the members who bridged the factions — the people with strong
// ties to both leaders — and the top combined scores should be dominated
// by the well-known boundary members. This is the same kind of sanity
// check as the paper's DBLP case studies, on a dataset small enough to
// verify by eye.
//
//	go run ./examples/karate
package main

import (
	"context"
	"fmt"
	"log"

	"ceps"
)

// The 78 undirected friendship edges of Zachary's karate club, 1-indexed
// as in the original paper.
var karateEdges = [][2]int{
	{2, 1}, {3, 1}, {3, 2}, {4, 1}, {4, 2}, {4, 3}, {5, 1}, {6, 1},
	{7, 1}, {7, 5}, {7, 6}, {8, 1}, {8, 2}, {8, 3}, {8, 4}, {9, 1},
	{9, 3}, {10, 3}, {11, 1}, {11, 5}, {11, 6}, {12, 1}, {13, 1},
	{13, 4}, {14, 1}, {14, 2}, {14, 3}, {14, 4}, {17, 6}, {17, 7},
	{18, 1}, {18, 2}, {20, 1}, {20, 2}, {22, 1}, {22, 2}, {26, 24},
	{26, 25}, {28, 3}, {28, 24}, {28, 25}, {29, 3}, {30, 24}, {30, 27},
	{31, 2}, {31, 9}, {32, 1}, {32, 25}, {32, 26}, {32, 29}, {33, 3},
	{33, 9}, {33, 15}, {33, 16}, {33, 19}, {33, 21}, {33, 23}, {33, 24},
	{33, 30}, {33, 31}, {33, 32}, {34, 9}, {34, 10}, {34, 14}, {34, 15},
	{34, 16}, {34, 19}, {34, 20}, {34, 21}, {34, 23}, {34, 24}, {34, 27},
	{34, 28}, {34, 29}, {34, 30}, {34, 31}, {34, 32}, {34, 33},
}

// officerFaction holds the members who sided with the officer (node 34)
// after the split; everyone else followed Mr. Hi (node 1).
var officerFaction = map[int]bool{
	9: true, 10: true, 15: true, 16: true, 19: true, 21: true, 23: true,
	24: true, 25: true, 26: true, 27: true, 28: true, 29: true, 30: true,
	31: true, 32: true, 33: true, 34: true,
}

func main() {
	ctx := context.Background()
	b := ceps.NewBuilder(35) // node 0 unused; keep the paper's 1-indexing
	for i := 1; i <= 34; i++ {
		b.SetLabel(i, fmt.Sprintf("member-%02d", i))
	}
	b.SetLabel(1, "Mr. Hi (instructor)")
	b.SetLabel(34, "John A. (officer)")
	for _, e := range karateEdges {
		b.AddEdge(e[0], e[1], 1)
	}
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Zachary's karate club: %d members, %d friendships\n\n", g.N()-1, g.M())

	cfg := ceps.DefaultConfig()
	cfg.Budget = 5

	// Who bridges the two faction leaders?
	fmt.Println("top center-piece candidates between the leaders:")
	top, err := ceps.TopCenterPieces(ctx, g, []int{1, 34}, cfg, 5)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range top {
		fmt.Printf("  %d. %-22s r(Q,j) = %.4f  (faction: %s)\n",
			i+1, g.Label(r.Node), r.Score, factionOf(r.Node))
	}

	res, err := ceps.Query(ctx, g, []int{1, 34}, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncenter-piece subgraph (budget %d, %v):\n", cfg.Budget, res.Elapsed)
	for _, u := range res.Subgraph.Nodes {
		fmt.Printf("  %-22s (faction: %s)\n", g.Label(u), factionOf(u))
	}

	// The extracted bridge members should touch both factions: verify
	// that at least one extracted non-leader comes from each side.
	var hi, officer int
	for _, u := range res.Subgraph.Nodes {
		if u == 1 || u == 34 {
			continue
		}
		if officerFaction[u] {
			officer++
		} else {
			hi++
		}
	}
	fmt.Printf("\nbridge composition: %d from Mr. Hi's side, %d from the officer's side\n", hi, officer)
	if hi == 0 || officer == 0 {
		log.Fatal("demo expectation failed: bridge should touch both factions")
	}
	fmt.Println("=> the center-piece members are exactly the faction-boundary people")
}

func factionOf(u int) string {
	if officerFaction[u] {
		return "officer"
	}
	return "Mr. Hi"
}
