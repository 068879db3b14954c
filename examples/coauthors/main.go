// Coauthors reproduces the Fig. 3 case study: a three-query AND search on
// the synthetic DBLP graph, rendered as Graphviz DOT on stdout. The
// planted cross-disciplinary connectors should surface as the
// center-pieces, the way Raymond Ng / Jiawei Han / Laks Lakshmanan do in
// the paper's Fig. 3.
//
//	go run ./examples/coauthors           # human-readable listing
//	go run ./examples/coauthors -dot      # Graphviz DOT on stdout
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"ceps"
)

func main() {
	dot := flag.Bool("dot", false, "emit Graphviz DOT")
	flag.Parse()

	cfg := ceps.ScaleDBLP(ceps.DefaultDBLPConfig(), 0.25)
	cfg.Seed = 3
	cfg.ConnectorsPerPair = 4
	cfg.ConnectorPapers = 10
	ds, err := ceps.GenerateDBLP(cfg)
	if err != nil {
		log.Fatal(err)
	}
	g := ds.Graph

	// Three queries from three different communities (the synthetic
	// Getoor / Karypis / Pei).
	queries := []int{
		ds.Repository[0][0],
		ds.Repository[1][0],
		ds.Repository[2][0],
	}

	qcfg := ceps.DefaultConfig()
	qcfg.Budget = 10
	res, err := ceps.Query(context.Background(), g, queries, qcfg)
	if err != nil {
		log.Fatal(err)
	}

	if *dot {
		if err := res.Subgraph.WriteDOT(os.Stdout, g, ceps.DOTOptions{
			Highlight:      queries,
			IncludeInduced: true,
			Name:           "fig3",
		}); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("AND query over three communities (budget %d, %v):\n\n", qcfg.Budget, res.Elapsed)
	for _, q := range queries {
		fmt.Printf("  [Q] %-34s (%s)\n", g.Label(q), ds.Communities[ds.CommunityOf[q]].Name)
	}
	fmt.Println("\ncenter-piece subgraph:")
	connectors := map[int]bool{}
	for _, c := range ds.Connectors {
		connectors[c] = true
	}
	found := 0
	for _, u := range res.Subgraph.Nodes {
		tag := "     "
		if connectors[u] {
			tag = "[***]" // a planted cross-disciplinary connector
			found++
		}
		fmt.Printf("  %s %-34s (%s)\n", tag, g.Label(u), ds.Communities[ds.CommunityOf[u]].Name)
	}
	fmt.Printf("\nplanted connectors recovered as center-pieces: %d\n", found)
	fmt.Printf("NRatio: %.3f — the subgraph holds that share of the total goodness mass\n", res.NRatio())
}
