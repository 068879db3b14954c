package core

import (
	"math/rand"
	"testing"

	"ceps/internal/dblp"
	"ceps/internal/graph"
	"ceps/internal/rwr"
)

func testDataset(t testing.TB, seed int64) *dblp.Dataset {
	t.Helper()
	ds, err := dblp.Generate(dblp.Config{
		Seed: seed,
		Communities: []dblp.Community{
			{Name: "db", Authors: 120, Papers: 360, RepositorySize: 13},
			{Name: "ml", Authors: 120, Papers: 360, RepositorySize: 13},
			{Name: "ir", Authors: 80, Papers: 240, RepositorySize: 11},
		},
		ConnectorsPerPair: 2,
		ConnectorPapers:   6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.RWR.Iterations = 30
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.Budget = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero budget should fail")
	}
	bad = DefaultConfig()
	bad.K = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative K should fail")
	}
	bad = DefaultConfig()
	bad.MaxPathLen = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative path length should fail")
	}
	bad = DefaultConfig()
	bad.RWR.C = 5
	if err := bad.Validate(); err == nil {
		t.Error("bad RWR config should fail")
	}
}

func TestEffectiveKAndCombiner(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.EffectiveK(4) != 4 {
		t.Error("K=0 should mean AND (K=Q)")
	}
	if cfg.QueryTypeName(4) != "AND" {
		t.Errorf("name = %q", cfg.QueryTypeName(4))
	}
	cfg.K = 1
	if cfg.QueryTypeName(4) != "OR" {
		t.Errorf("name = %q", cfg.QueryTypeName(4))
	}
	cfg.K = 2
	if cfg.QueryTypeName(4) != "2_softAND" {
		t.Errorf("name = %q", cfg.QueryTypeName(4))
	}
	cfg.K = 9
	if cfg.EffectiveK(4) != 4 {
		t.Error("K above Q should clamp")
	}
	cfg.OrderStat = true
	cfg.K = 0
	if cfg.QueryTypeName(3) != "min-order-stat" {
		t.Errorf("name = %q", cfg.QueryTypeName(3))
	}
	cfg.K = 1
	if cfg.QueryTypeName(3) != "max-order-stat" {
		t.Errorf("name = %q", cfg.QueryTypeName(3))
	}
	cfg.K = 2
	if cfg.QueryTypeName(3) != "2-th-order-stat" {
		t.Errorf("name = %q", cfg.QueryTypeName(3))
	}
}

func TestCePSEndToEnd(t *testing.T) {
	ds := testDataset(t, 1)
	rng := rand.New(rand.NewSource(2))
	queries, err := ds.RandomQueries(rng, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.Budget = 15
	res, err := CePS(ds.Graph, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if !res.Subgraph.Has(q) {
			t.Fatalf("query %d missing from subgraph", q)
		}
	}
	if extra := res.Subgraph.Size() - len(queries); extra > 15 {
		t.Fatalf("budget exceeded: %d extra nodes", extra)
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed time not recorded")
	}
	if res.NRatio() <= 0 || res.NRatio() > 1 {
		t.Errorf("NRatio = %v outside (0,1]", res.NRatio())
	}
	er, err := res.ERatio()
	if err != nil {
		t.Fatal(err)
	}
	if er < 0 || er > 1 {
		t.Errorf("ERatio = %v outside [0,1]", er)
	}
	if len(res.R) != 3 || len(res.Combined) != ds.Graph.N() {
		t.Error("score matrices have wrong shape")
	}
}

func TestCePSQueryValidation(t *testing.T) {
	ds := testDataset(t, 3)
	cfg := fastConfig()
	if _, err := CePS(nil, []int{1}, cfg); err == nil {
		t.Error("nil graph should fail")
	}
	if _, err := CePS(ds.Graph, nil, cfg); err == nil {
		t.Error("empty queries should fail")
	}
	if _, err := CePS(ds.Graph, []int{1, 1}, cfg); err == nil {
		t.Error("duplicate queries should fail")
	}
	if _, err := CePS(ds.Graph, []int{-1}, cfg); err == nil {
		t.Error("negative query should fail")
	}
	if _, err := CePS(ds.Graph, []int{ds.Graph.N()}, cfg); err == nil {
		t.Error("out-of-range query should fail")
	}
	bad := cfg
	bad.Budget = -1
	if _, err := CePS(ds.Graph, []int{1}, bad); err == nil {
		t.Error("bad config should fail")
	}
}

func TestCePSFindsPlantedConnector(t *testing.T) {
	// Build a graph with an unmistakable center-piece: two cliques joined
	// only through node `bridge`. An AND query with one node per clique
	// must extract the bridge.
	b := graph.NewBuilder(11)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdge(i, j, 2)
		}
	}
	for i := 5; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			b.AddEdge(i, j, 2)
		}
	}
	bridge := 10
	b.AddEdge(0, bridge, 3)
	b.AddEdge(5, bridge, 3)
	g := b.MustBuild()

	cfg := fastConfig()
	cfg.Budget = 3
	res, err := CePS(g, []int{1, 6}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Subgraph.Has(bridge) {
		t.Fatalf("bridge %d not extracted; got %v", bridge, res.Subgraph.Nodes)
	}
}

func TestKSoftANDSplitsCommunities(t *testing.T) {
	// The Fig. 1 behaviour: two well-separated communities, two queries in
	// each. 2_softAND should favour per-community structure over the
	// (weak) global bridge, while AND concentrates on cross connectors.
	ds := testDataset(t, 5)
	rng := rand.New(rand.NewSource(11))
	var queries []int
	for _, ci := range []int{0, 0, 1, 1} {
		repo := ds.Repository[ci]
		for {
			cand := repo[rng.Intn(len(repo))]
			dup := false
			for _, q := range queries {
				if q == cand {
					dup = true
				}
			}
			if !dup {
				queries = append(queries, cand)
				break
			}
		}
	}
	cfg := fastConfig()
	cfg.Budget = 12
	cfg.K = 2
	soft, err := CePS(ds.Graph, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.K = 0
	and, err := CePS(ds.Graph, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Both must produce valid subgraphs containing all queries.
	for _, res := range []*Result{soft, and} {
		for _, q := range queries {
			if !res.Subgraph.Has(q) {
				t.Fatal("query missing")
			}
		}
	}
	if soft.Combiner.String() != "2_softAND" || and.Combiner.String() != "AND" {
		t.Fatalf("combiners: %s / %s", soft.Combiner, and.Combiner)
	}
}

func TestOrderStatVariantRuns(t *testing.T) {
	ds := testDataset(t, 7)
	rng := rand.New(rand.NewSource(3))
	queries, err := ds.RandomQueries(rng, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.OrderStat = true
	res, err := CePS(ds.Graph, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NRatio() <= 0 {
		t.Error("order-stat variant captured nothing")
	}
}

func TestSymmetricNormalizationVariantRuns(t *testing.T) {
	ds := testDataset(t, 8)
	cfg := fastConfig()
	cfg.RWR.Norm = rwr.NormSymmetric
	queries := []int{ds.Repository[0][0], ds.Repository[1][0]}
	res, err := CePS(ds.Graph, queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Subgraph.Size() < 2 {
		t.Error("symmetric variant produced empty output")
	}
}
