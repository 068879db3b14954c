package extract

import (
	"testing"

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

// BenchmarkKeyPathDP times one key path toward a mid-ranked destination:
// "first" as a query's first path from its source (heap build, order
// extension and uphill lists included), "reuse" as a later path of the same
// query that finds the order already deep enough.
func BenchmarkKeyPathDP(b *testing.B) {
	g := randomGraph(b, 5000, 20000, 1)
	queries := []int{3}
	R, combined := scoresFor(b, g, queries, score.AND{})
	inH := make([]bool, g.N())
	inH[3] = true
	// A mid-ranked destination so the candidate set is realistic.
	pd := 0
	bestScore := -1.0
	for v := range combined {
		if v != 3 && combined[v] > bestScore {
			pd, bestScore = v, combined[v]
		}
	}
	sc := new(scratch)
	b.Run("first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sc.reset(g, R, combined, inH)
			if _, ok := sc.keyPath(0, 3, pd, inH, 20, false); !ok {
				b.Fatal("no path")
			}
		}
	})
	b.Run("reuse", func(b *testing.B) {
		sc.reset(g, R, combined, inH)
		for i := 0; i < b.N; i++ {
			if _, ok := sc.keyPath(0, 3, pd, inH, 20, false); !ok {
				b.Fatal("no path")
			}
		}
	})
}
