package ceps_test

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ceps"
)

func smallDataset(t testing.TB) *ceps.Dataset {
	t.Helper()
	cfg := ceps.ScaleDBLP(ceps.DefaultDBLPConfig(), 0.1)
	cfg.Seed = 42
	ds, err := ceps.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func quickConfig() ceps.Config {
	cfg := ceps.DefaultConfig()
	cfg.RWR.Iterations = 25
	cfg.Budget = 10
	return cfg
}

func newEngine(t testing.TB, g *ceps.Graph, opts ...ceps.Option) *ceps.Engine {
	t.Helper()
	eng, err := ceps.NewEngine(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// setPartitions pre-partitions eng's graph into p parts (seed 1) and
// installs the Fast CePS state.
func setPartitions(t testing.TB, eng *ceps.Engine, p int) *ceps.Partitioned {
	t.Helper()
	pt, err := ceps.PrePartition(context.Background(), eng.Graph(), p, ceps.PartitionOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetPartitioned(pt)
	return pt
}

// doSets answers each query set with its own Do call from its own
// goroutine, at most conc in flight at once, and returns the answers and
// errors in input order: how a library caller batches.
func doSets(ctx context.Context, eng *ceps.Engine, sets [][]int, conc int) ([]*ceps.Result, []error) {
	res := make([]*ceps.Result, len(sets))
	errs := make([]error, len(sets))
	sem := make(chan struct{}, max(conc, 1))
	var wg sync.WaitGroup
	for i, qs := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res[i], errs[i] = eng.Do(ctx, qs)
		}()
	}
	wg.Wait()
	return res, errs
}

func TestPublicQuickstartFlow(t *testing.T) {
	ds := smallDataset(t)
	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()))
	res, err := eng.Do(context.Background(), []int{ds.Repository[0][0], ds.Repository[1][0]})
	if err != nil {
		t.Fatal(err)
	}
	if res.Subgraph.Size() < 2 {
		t.Fatal("subgraph too small")
	}
	if !res.Subgraph.Has(ds.Repository[0][0]) {
		t.Fatal("query missing")
	}
	if res.NRatio() <= 0 {
		t.Fatal("NRatio should be positive")
	}
}

func TestEngineFastMode(t *testing.T) {
	ds := smallDataset(t)
	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()))
	queries := []int{ds.Repository[0][0], ds.Repository[0][1]}

	full, err := eng.Do(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	pt := setPartitions(t, eng, 6)
	if eng.Partitioned() != pt || pt.PartitionTime <= 0 {
		t.Fatal("fast mode not active")
	}
	fast, err := eng.Do(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if fast.WorkGraph.N() >= full.WorkGraph.N() {
		t.Errorf("fast work graph %d not smaller than full %d", fast.WorkGraph.N(), full.WorkGraph.N())
	}
	rel, err := ceps.RelRatio(full, fast)
	if err != nil {
		t.Fatal(err)
	}
	if rel <= 0 {
		t.Errorf("RelRatio = %v", rel)
	}
	eng.SetPartitioned(nil)
	if eng.Partitioned() != nil {
		t.Fatal("fast mode should be off")
	}
}

func TestEngineKSoftAND(t *testing.T) {
	ds := smallDataset(t)
	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()))
	queries := []int{
		ds.Repository[0][0], ds.Repository[0][1],
		ds.Repository[1][0], ds.Repository[1][1],
	}
	res, err := eng.Do(context.Background(), queries, ceps.WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Combiner.String() != "2_softAND" {
		t.Errorf("combiner = %s", res.Combiner)
	}
	// The engine's stored config must be untouched.
	if eng.Config().K != 0 {
		t.Error("WithK mutated the engine config")
	}
}

func TestEngineEmptyQuery(t *testing.T) {
	ds := smallDataset(t)
	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()))
	if _, err := eng.Do(context.Background(), nil); err == nil {
		t.Fatal("empty query should fail")
	}
}

func TestPublicGraphBuildAndIO(t *testing.T) {
	b := ceps.NewBuilder(0)
	a := b.AddNode("alice")
	c := b.AddNode("bob")
	b.AddEdge(a, c, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "g.txt")
	if err := g.WriteFile(p); err != nil {
		t.Fatal(err)
	}
	g2, err := ceps.ReadGraphFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != 2 || g2.Weight(0, 1) != 2 {
		t.Fatal("round trip failed")
	}
	g3, err := ceps.FromEdges(3, []ceps.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if g3.M() != 2 {
		t.Fatal("FromEdges failed")
	}
}

func TestPublicBaseline(t *testing.T) {
	ds := smallDataset(t)
	res, err := ceps.ConnectionSubgraph(ds.Graph, ds.Repository[0][0], ds.Repository[0][1], ceps.CurrentConfig{Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Subgraph.Has(ds.Repository[0][0]) || !res.Subgraph.Has(ds.Repository[0][1]) {
		t.Fatal("baseline lost the query endpoints")
	}
}

func TestQueryFunctionMatchesEngine(t *testing.T) {
	ds := smallDataset(t)
	cfg := quickConfig()
	queries := []int{ds.Repository[2][0], ds.Repository[3][0]}
	a, err := ceps.Query(context.Background(), ds.Graph, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newEngine(t, ds.Graph, ceps.WithConfig(cfg)).Do(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if a.Subgraph.Size() != b.Subgraph.Size() {
		t.Fatal("Query and Engine.Query disagree")
	}
	for i := range a.Subgraph.Nodes {
		if a.Subgraph.Nodes[i] != b.Subgraph.Nodes[i] {
			t.Fatal("node sets differ")
		}
	}
}

func TestPublicInferKAndAutoK(t *testing.T) {
	ds := smallDataset(t)
	queries := []int{
		ds.Repository[0][0], ds.Repository[0][1],
		ds.Repository[1][0], ds.Repository[1][1],
	}
	k, supports, err := ceps.InferK(context.Background(), ds.Graph, queries, quickConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(supports) != 4 || k < 1 || k > 4 {
		t.Fatalf("InferK gave k=%d supports=%v", k, supports)
	}
	res, err := ceps.QueryAutoK(context.Background(), ds.Graph, queries, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Subgraph.Size() < 4 {
		t.Fatal("auto-k result too small")
	}
}

func TestPublicSteinerTree(t *testing.T) {
	ds := smallDataset(t)
	terms := []int{ds.Repository[0][0], ds.Repository[0][1]}
	if !ds.Graph.SameComponent(terms) {
		t.Skip("terminals disconnected in this draw")
	}
	res, err := ceps.SteinerTree(ds.Graph, terms, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, term := range terms {
		if !res.Subgraph.Has(term) {
			t.Fatal("terminal missing from Steiner tree")
		}
	}
}

func TestEngineConcurrentQueries(t *testing.T) {
	ds := smallDataset(t)
	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()))
	queries := []int{ds.Repository[0][0], ds.Repository[1][0]}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = eng.Do(context.Background(), queries)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestNormConstantsExported(t *testing.T) {
	if ceps.NormColumn == ceps.NormDegreePenalized || ceps.NormDegreePenalized == ceps.NormSymmetric {
		t.Fatal("normalization constants must be distinct")
	}
	cfg := ceps.DefaultConfig()
	if cfg.RWR.Norm != ceps.NormDegreePenalized {
		t.Fatal("default normalization should be degree-penalized")
	}
}

// TestNoCtxTwins: each public entry point exists once, taking ctx first,
// so no exported function or method of the package may carry a "Ctx"
// suffix naming a second form.
func TestNoCtxTwins(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.IsExported() && strings.HasSuffix(fn.Name.Name, "Ctx") {
				t.Errorf("%s: exported %s is a second form of an entry point; give the one form a ctx instead",
					fset.Position(fn.Pos()), fn.Name.Name)
			}
		}
	}
}
