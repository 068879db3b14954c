package extract

import (
	"context"
	"sync"
	"testing"

	"ceps/internal/score"
)

// TestExtractConcurrentMatchesSequential runs ExtractCtx from several
// goroutines on one graph with different query sets. The per-query scratch
// is pooled across calls, so a scratch shared between two live calls, or
// one carrying state into the next query, would show up here as an answer
// that differs from the sequential one (or as a race under -race).
func TestExtractConcurrentMatchesSequential(t *testing.T) {
	g := randomGraph(t, 400, 1200, 7)
	sets := [][]int{{3, 77}, {10, 200, 350}, {5}, {120, 121, 300, 399}, {42, 250}, {8, 9, 10}}
	combiners := []score.Combiner{score.AND{}, score.OR{}, score.KSoftAND{K: 2}}
	type job struct {
		in   Input
		want *Result
	}
	jobs := make([]job, len(sets))
	for i, qs := range sets {
		comb := combiners[i%len(combiners)]
		R, combined := scoresFor(t, g, qs, comb)
		k := len(qs)
		switch c := comb.(type) {
		case score.OR:
			k = 1
		case score.KSoftAND:
			k = c.K
		}
		in := Input{G: g, Queries: qs, R: R, Combined: combined, K: k, Budget: 6 + 3*i, NoSharing: i == 4}
		want, err := ExtractCtx(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job{in, want}
	}
	const workers, rounds = 4, 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				j := jobs[(w+r)%len(jobs)]
				got, err := ExtractCtx(context.Background(), j.in)
				if err != nil {
					t.Error(err)
					return
				}
				if msg := diffResults(got, j.want); msg != "" {
					t.Errorf("worker %d, queries %v: %s", w, j.in.Queries, msg)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
