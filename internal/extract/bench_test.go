package extract

import (
	"fmt"
	"math/rand"
	"testing"

	"ceps/internal/dblp"
	"ceps/internal/rwr"
	"ceps/internal/score"
)

func BenchmarkExtractBudgets(b *testing.B) {
	g := randomGraph(b, 5000, 20000, 1)
	queries := []int{3, 1777, 4200}
	R, combined := scoresFor(b, g, queries, score.AND{})
	for _, budget := range []int{10, 50, 200} {
		name := map[int]string{10: "b=10", 50: "b=50", 200: "b=200"}[budget]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Extract(Input{
					G: g, Queries: queries, R: R, Combined: combined,
					K: 3, Budget: budget,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtractRWR times whole EXTRACT runs at the engine's defaults
// (budget 20, degree-penalized RWR rows at m = 50) on the scale-1 dblp
// substrate (~4k authors), for repository query sets of 2, 3 and 4 nodes
// under AND, OR and K_softAND with k = Q−1, each scanning r(i, ·) ("scan")
// and reading the rows' uphill bitmasks ("bitmask"), as a warm engine
// does for rows its score cache serves.
func BenchmarkExtractRWR(b *testing.B) {
	ds, err := dblp.Generate(dblp.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	g := ds.Graph
	s, err := rwr.NewSolver(g, rwr.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for q := 2; q <= 4; q++ {
		queries, err := ds.RandomQueries(rng, q, true)
		if err != nil {
			b.Fatal(err)
		}
		R, err := s.ScoresSet(queries)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			name string
			comb score.Combiner
			k    int
		}{
			{"AND", score.AND{}, q},
			{"OR", score.OR{}, 1},
			{"KSoftAND", score.KSoftAND{K: q - 1}, q - 1},
		} {
			combined, err := score.CombineNodes(R, c.comb)
			if err != nil {
				b.Fatal(err)
			}
			for _, up := range []struct {
				name string
				up   [][]uint64
			}{{"scan", nil}, {"bitmask", uphillMasks(g, R)}} {
				in := Input{G: g, Queries: queries, R: R, Combined: combined, K: c.k, Budget: 20, Uphill: up.up}
				b.Run(fmt.Sprintf("Q=%d/%s/%s", q, c.name, up.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := Extract(in); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkKeyPathDP times one key path toward the best destination:
// "build" as a query's first path from its source, which builds the
// uphill lists it walks; "reuse" as a later path of the same query after
// a join made every stored state stale, which finds the lists built and
// pays for the walk and the DP; and "stored" as a later path with the
// destination's states current, which only reads them and reconstructs
// the path.
func BenchmarkKeyPathDP(b *testing.B) {
	g := randomGraph(b, 5000, 20000, 1)
	queries := []int{3}
	R, combined := scoresFor(b, g, queries, score.AND{})
	inH := make([]bool, g.N())
	inH[3] = true
	pd := 0
	bestScore := -1.0
	for v := range combined {
		if v != 3 && combined[v] > bestScore {
			pd, bestScore = v, combined[v]
		}
	}
	sc := new(scratch)
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sc.reset(g, R, nil, combined, inH)
			if _, ok := sc.keyPath(0, 3, pd, inH, 20, false); !ok {
				b.Fatal("no path")
			}
		}
	})
	for _, name := range []string{"reuse", "stored"} {
		b.Run(name, func(b *testing.B) {
			sc.reset(g, R, nil, combined, inH)
			if _, ok := sc.keyPath(0, 3, pd, inH, 20, false); !ok {
				b.Fatal("no path")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if name == "reuse" {
					sc.join(3) // the source ranks above every stored row
				}
				if _, ok := sc.keyPath(0, 3, pd, inH, 20, false); !ok {
					b.Fatal("no path")
				}
			}
		})
	}
}
