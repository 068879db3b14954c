package extract

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ceps/internal/graph"
	"ceps/internal/score"
)

// Differential tests: the incremental key-path DP and destination heap
// against the reference implementation in reference_test.go.

// hubGraph is a random connected graph with a few hubs adjacent to a large
// share of the nodes, so uphill lists range from empty to most of the
// graph.
func hubGraph(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(i, rng.Intn(i), 1+float64(rng.Intn(4)))
	}
	for i := 0; i < n; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n), 1+float64(rng.Intn(4)))
	}
	hubs := 1 + rng.Intn(3)
	for h := 0; h < hubs; h++ {
		hub := rng.Intn(n)
		for v := 0; v < n; v++ {
			if v != hub && rng.Intn(3) == 0 {
				b.AddEdge(hub, v, 1)
			}
		}
	}
	return b.MustBuild()
}

// tiedScores draws n scores from a handful of levels, so most nodes share
// their score with others (pd's tie group included); levels ≤ 0 draws
// continuous scores instead.
func tiedScores(rng *rand.Rand, n, levels int) []float64 {
	s := make([]float64, n)
	for v := range s {
		if levels > 0 {
			s[v] = float64(rng.Intn(levels)) / float64(levels)
		} else {
			s[v] = rng.Float64()
		}
	}
	return s
}

// quantize rounds scores to a few significant bits, turning near-ties of
// real RWR scores into exact ones.
func quantize(s []float64, bits uint) []float64 {
	out := make([]float64, len(s))
	for v, x := range s {
		frac, exp := math.Frexp(x)
		out[v] = math.Ldexp(math.Round(frac*float64(uint(1)<<bits))/float64(uint(1)<<bits), exp)
	}
	return out
}

func TestKeyPathMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20210620))
	sc := new(scratch) // reused across graphs: every trial is a reset
	var calls, found, tiedPd int
	for trial := 0; trial < 150; trial++ {
		n := 10 + rng.Intn(150)
		g := hubGraph(rng, n)
		q := 1 + rng.Intn(3)
		R := make([][]float64, q)
		for i := range R {
			R[i] = tiedScores(rng, n, []int{0, 3, 6, 12}[rng.Intn(4)])
		}
		combined := tiedScores(rng, n, 8)
		inH := make([]bool, n)
		sc.reset(g, R, combined, inH)
		ref := newRefPathDP(g, n)
		for call := 0; call < 42; call++ {
			hProb := rng.Float64() * 0.5
			for v := range inH {
				inH[v] = rng.Float64() < hProb
			}
			i := rng.Intn(q)
			src := rng.Intn(n)
			if rng.Intn(4) > 0 { // a source at the top reaches most nodes
				src = 0
				for v, s := range R[i] {
					if s > R[i][src] {
						src = v
					}
				}
			}
			pd := rng.Intn(n)
			maxNew := 1 + call%21
			noSharing := rng.Intn(2) == 0
			want, wantOK := ref.keyPath(R[i], combined, src, pd, inH, maxNew, noSharing)
			got, gotOK := sc.keyPath(i, src, pd, inH, maxNew, noSharing)
			if !equalPath(got, gotOK, want, wantOK) {
				t.Fatalf("trial %d call %d: keyPath(src %d, pd %d, maxNew %d, noSharing %v) = (%v, %v), reference (%v, %v)",
					trial, call, src, pd, maxNew, noSharing, got, gotOK, want, wantOK)
			}
			calls++
			if wantOK {
				found++
			}
			for v, s := range R[i] {
				if v != pd && s == R[i][pd] {
					tiedPd++
					break
				}
			}
		}
	}
	// The comparison means little unless paths exist and pd often has ties.
	if found < calls/4 || tiedPd < calls/4 {
		t.Fatalf("weak coverage: %d calls, %d found paths, %d with nodes tied to pd", calls, found, tiedPd)
	}
}

func TestExtractMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 60; trial++ {
		n := 20 + rng.Intn(200)
		g := hubGraph(rng, n)
		q := 1 + rng.Intn(4)
		queries := rng.Perm(n)[:q]
		var R [][]float64
		switch trial % 3 {
		case 0: // realistic RWR scores
			R, _ = scoresFor(t, g, queries, score.AND{})
		case 1: // RWR scores with exact ties
			R, _ = scoresFor(t, g, queries, score.AND{})
			for i := range R {
				R[i] = quantize(R[i], 3)
			}
		default: // heavily tied synthetic scores
			R = make([][]float64, q)
			for i := range R {
				R[i] = tiedScores(rng, n, 5)
			}
		}
		for k := 1; k <= q; k++ {
			combined, err := score.CombineNodes(R, score.KSoftAND{K: k})
			if err != nil {
				t.Fatal(err)
			}
			in := Input{
				G: g, Queries: queries, R: R, Combined: combined, K: k,
				Budget:    1 + rng.Intn(30),
				NoSharing: rng.Intn(2) == 0,
			}
			if rng.Intn(2) == 0 {
				in.MaxPathLen = 1 + rng.Intn(21)
			}
			want := refExtract(t, in) // also checks every pick and key path
			got, err := Extract(in)
			if err != nil {
				t.Fatal(err)
			}
			if msg := diffResults(got, want); msg != "" {
				t.Fatalf("trial %d k=%d budget=%d maxLen=%d noSharing=%v: %s",
					trial, k, in.Budget, in.MaxPathLen, in.NoSharing, msg)
			}
		}
	}
}

// diffResults describes the first difference between two Results, with
// floats compared bit for bit; "" means identical.
func diffResults(got, want *Result) string {
	switch {
	case !reflect.DeepEqual(got.Destinations, want.Destinations):
		return "destinations differ"
	case got.PathsFound != want.PathsFound:
		return "path counts differ"
	case !reflect.DeepEqual(got.Provenance, want.Provenance):
		return "provenance differs"
	case math.Float64bits(got.ExtractedGoodness) != math.Float64bits(want.ExtractedGoodness):
		return "extracted goodness differs"
	case !reflect.DeepEqual(got.Subgraph.Nodes, want.Subgraph.Nodes):
		return "subgraph nodes differ"
	case !sameEdges(got.Subgraph.PathEdges, want.Subgraph.PathEdges):
		return "path edges differ"
	case !sameEdges(got.Subgraph.InducedEdges, want.Subgraph.InducedEdges):
		return "induced edges differ"
	}
	return ""
}

func sameEdges(a, b []graph.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].U != b[i].U || a[i].V != b[i].V || math.Float64bits(a[i].W) != math.Float64bits(b[i].W) {
			return false
		}
	}
	return true
}
