package ceps_test

import (
	"context"
	"fmt"
	"sort"

	"ceps"
)

// buildAdvisorGraph creates the doc-example graph: two research groups
// joined through a common mentor.
func buildAdvisorGraph() (*ceps.Graph, map[string]int) {
	b := ceps.NewBuilder(0)
	ids := map[string]int{}
	for _, name := range []string{"Ann", "Bob", "Cleo", "Dan", "Mentor"} {
		ids[name] = b.AddNode(name)
	}
	b.AddEdge(ids["Ann"], ids["Bob"], 5)     // database group
	b.AddEdge(ids["Cleo"], ids["Dan"], 5)    // ML group
	b.AddEdge(ids["Ann"], ids["Mentor"], 3)  // the mentor collaborates
	b.AddEdge(ids["Cleo"], ids["Mentor"], 3) // with both groups
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g, ids
}

// The quickstart: who is the center-piece between two researchers from
// different groups?
func Example() {
	g, ids := buildAdvisorGraph()
	eng, err := ceps.NewEngine(g)
	if err != nil {
		panic(err)
	}
	res, err := eng.Do(context.Background(), []int{ids["Ann"], ids["Cleo"]})
	if err != nil {
		panic(err)
	}
	names := make([]string, 0, res.Subgraph.Size())
	for _, u := range res.Subgraph.Nodes {
		names = append(names, g.Label(u))
	}
	sort.Strings(names)
	fmt.Println(names)
	// Output: [Ann Bob Cleo Dan Mentor]
}

// TopCenterPieces ranks candidates without extracting a subgraph.
func ExampleTopCenterPieces() {
	g, ids := buildAdvisorGraph()
	top, err := ceps.TopCenterPieces(context.Background(), g, []int{ids["Ann"], ids["Cleo"]}, ceps.DefaultConfig(), 1)
	if err != nil {
		panic(err)
	}
	fmt.Println(g.Label(top[0].Node))
	// Output: Mentor
}

// InferK detects that two queries from one tight group want a strict AND.
func ExampleInferK() {
	b := ceps.NewBuilder(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(i, j, 2) // one tight clique
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	k, _, err := ceps.InferK(context.Background(), g, []int{0, 1, 2}, ceps.DefaultConfig(), 0)
	if err != nil {
		panic(err)
	}
	fmt.Println(k)
	// Output: 3
}

// Explain justifies every node of the answer with its key path.
func ExampleResult_Explain() {
	g, ids := buildAdvisorGraph()
	cfg := ceps.DefaultConfig()
	cfg.Budget = 1
	res, err := ceps.Query(context.Background(), g, []int{ids["Ann"], ids["Cleo"]}, cfg)
	if err != nil {
		panic(err)
	}
	line, ok := res.Explain(ids["Mentor"])
	fmt.Println(ok, line != "")
	// Output: true true
}
