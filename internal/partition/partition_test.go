package partition

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ceps/internal/graph"
)

// communityGraph plants `k` dense communities of size `size` with sparse
// bridges; a decent partitioner should recover them almost exactly.
func communityGraph(t testing.TB, k, size int, seed int64) (*graph.Graph, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := k * size
	truth := make([]int, n)
	b := graph.NewBuilder(n)
	for c := 0; c < k; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			truth[base+i] = c
		}
		// Dense intra-community wiring: ring + random chords.
		for i := 0; i < size; i++ {
			b.AddEdge(base+i, base+(i+1)%size, 4)
			b.AddEdge(base+i, base+rng.Intn(size), 3)
			b.AddEdge(base+i, base+rng.Intn(size), 3)
		}
	}
	// Sparse bridges between consecutive communities.
	for c := 0; c+1 < k; c++ {
		for j := 0; j < 2; j++ {
			b.AddEdge(c*size+rng.Intn(size), (c+1)*size+rng.Intn(size), 1)
		}
	}
	return b.MustBuild(), truth
}

func randomConnected(t testing.TB, n, extra int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(i, rng.Intn(i), 1+rng.Float64())
	}
	for i := 0; i < extra; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n), 1+rng.Float64())
	}
	return b.MustBuild()
}

func TestKWayValidation(t *testing.T) {
	g := randomConnected(t, 10, 10, 1)
	if _, err := KWay(nil, 2, Options{}); err == nil {
		t.Error("nil graph should fail")
	}
	if _, err := KWay(g, 0, Options{}); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := KWay(g, -2, Options{}); err == nil {
		t.Error("negative k should fail")
	}
	if _, err := KWay(g, 11, Options{}); err == nil {
		t.Error("k>n should fail")
	}
}

func TestKWayTrivial(t *testing.T) {
	g := randomConnected(t, 20, 30, 2)
	res, err := KWay(g, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgeCut != 0 {
		t.Errorf("k=1 edge cut = %v, want 0", res.EdgeCut)
	}
	for _, p := range res.Assign {
		if p != 0 {
			t.Fatal("k=1 must put everything in part 0")
		}
	}
}

func TestKWayCoversAllParts(t *testing.T) {
	g := randomConnected(t, 200, 400, 3)
	for _, k := range []int{2, 3, 5, 8} {
		res, err := KWay(g, k, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.K != k || len(res.PartSizes) != k {
			t.Fatalf("result K = %d, want %d", res.K, k)
		}
		total := 0
		for p, sz := range res.PartSizes {
			if sz == 0 {
				t.Errorf("k=%d: part %d empty", k, p)
			}
			total += sz
		}
		if total != g.N() {
			t.Fatalf("k=%d: part sizes sum to %d, want %d", k, total, g.N())
		}
		for u, p := range res.Assign {
			if p < 0 || p >= k {
				t.Fatalf("node %d assigned to invalid part %d", u, p)
			}
		}
	}
}

func TestKWayBalance(t *testing.T) {
	g := randomConnected(t, 600, 1800, 4)
	for _, k := range []int{2, 4, 6} {
		res, err := KWay(g, k, Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		ideal := float64(g.N()) / float64(k)
		for p, sz := range res.PartSizes {
			if float64(sz) > ideal*1.6 || float64(sz) < ideal*0.4 {
				t.Errorf("k=%d part %d size %d badly unbalanced (ideal %.0f)", k, p, sz, ideal)
			}
		}
	}
}

func TestKWayRecoversPlantedCommunities(t *testing.T) {
	g, truth := communityGraph(t, 4, 50, 5)
	res, err := KWay(g, 4, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Agreement up to label permutation: count the majority truth label in
	// each found part; mismatches should be rare.
	counts := make([]map[int]int, 4)
	for i := range counts {
		counts[i] = make(map[int]int)
	}
	for u, p := range res.Assign {
		counts[p][truth[u]]++
	}
	agree := 0
	for _, c := range counts {
		best := 0
		for _, cnt := range c {
			if cnt > best {
				best = cnt
			}
		}
		agree += best
	}
	if frac := float64(agree) / float64(g.N()); frac < 0.9 {
		t.Errorf("planted community recovery = %.2f, want >= 0.9", frac)
	}
}

func TestKWayCutBeatsRandom(t *testing.T) {
	g, _ := communityGraph(t, 2, 80, 9)
	res, err := KWay(g, 2, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// A random balanced split cuts about half the intra-community weight;
	// the partitioner should do far better.
	rng := rand.New(rand.NewSource(13))
	perm := rng.Perm(g.N())
	randAssign := make([]int, g.N())
	for i, u := range perm {
		if i < g.N()/2 {
			randAssign[u] = 0
		} else {
			randAssign[u] = 1
		}
	}
	var randCut float64
	g.ForEachEdge(func(u, v int, w float64) {
		if randAssign[u] != randAssign[v] {
			randCut += w
		}
	})
	if res.EdgeCut >= randCut/4 {
		t.Errorf("edge cut %v not much better than random %v", res.EdgeCut, randCut)
	}
}

func TestKWayDeterministicForSeed(t *testing.T) {
	g := randomConnected(t, 150, 300, 17)
	a, err := KWay(g, 4, Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	b, err := KWay(g, 4, Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	for u := range a.Assign {
		if a.Assign[u] != b.Assign[u] {
			t.Fatal("partitioning is not deterministic for a fixed seed")
		}
	}
}

func TestKWayDisconnectedGraph(t *testing.T) {
	b := graph.NewBuilder(40)
	for i := 0; i < 19; i++ {
		b.AddEdge(i, i+1, 1) // component A: 0..19
	}
	for i := 20; i < 39; i++ {
		b.AddEdge(i, i+1, 1) // component B: 20..39
	}
	g := b.MustBuild()
	res, err := KWay(g, 2, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.PartSizes[0] == 0 || res.PartSizes[1] == 0 {
		t.Fatal("both parts must be populated")
	}
	// Two equal components should split with (near-)zero cut.
	if res.EdgeCut > 2 {
		t.Errorf("edge cut %v on two disjoint chains, want ~0", res.EdgeCut)
	}
}

func TestKWayEqualsN(t *testing.T) {
	g := randomConnected(t, 12, 8, 19)
	res, err := KWay(g, 12, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for p, sz := range res.PartSizes {
		if sz != 1 {
			t.Fatalf("part %d has %d nodes, want singleton parts", p, sz)
		}
	}
}

func TestPartsContainingAndNodesInParts(t *testing.T) {
	g := randomConnected(t, 100, 200, 23)
	res, err := KWay(g, 5, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	queries := []int{3, 50, 97}
	parts := res.PartsContaining(queries)
	for _, q := range queries {
		found := false
		for _, p := range parts {
			if res.Assign[q] == p {
				found = true
			}
		}
		if !found {
			t.Fatalf("query %d's part missing from %v", q, parts)
		}
	}
	for i := 1; i < len(parts); i++ {
		if parts[i-1] >= parts[i] {
			t.Fatal("parts not sorted")
		}
	}
	nodes := res.NodesInParts(parts)
	inSet := make(map[int]bool)
	for _, u := range nodes {
		inSet[u] = true
		ok := false
		for _, p := range parts {
			if res.Assign[u] == p {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("node %d not in requested parts", u)
		}
	}
	for _, q := range queries {
		if !inSet[q] {
			t.Fatalf("query %d missing from NodesInParts", q)
		}
	}
	// Complement check: nodes not returned must be in other parts.
	for u := 0; u < g.N(); u++ {
		if !inSet[u] {
			for _, p := range parts {
				if res.Assign[u] == p {
					t.Fatalf("node %d in part %d but absent from NodesInParts", u, p)
				}
			}
		}
	}
}

func TestBalanceMetric(t *testing.T) {
	r := &Result{K: 4, PartSizes: []int{25, 25, 25, 25}}
	if b := r.Balance(); b != 1 {
		t.Fatalf("perfect balance = %v, want 1", b)
	}
	r = &Result{K: 4, PartSizes: []int{40, 20, 20, 20}}
	if b := r.Balance(); b != 1.6 {
		t.Fatalf("balance = %v, want 1.6", b)
	}
	if (&Result{}).Balance() != 0 {
		t.Fatal("empty result should report 0")
	}
	// Real partitions stay within a modest factor.
	g := randomConnected(t, 400, 1200, 41)
	res, err := KWay(g, 6, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if b := res.Balance(); b > 1.8 {
		t.Fatalf("real partition badly unbalanced: %v", b)
	}
}

func TestKWayLargerSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short")
	}
	g := randomConnected(t, 3000, 9000, 29)
	for _, k := range []int{2, 8, 16} {
		res, err := KWay(g, k, Options{Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		for p, sz := range res.PartSizes {
			if sz == 0 {
				t.Errorf("k=%d part %d empty", k, p)
			}
		}
	}
}

// TestPartHelpersMatchMapReference pins PartsContaining and NodesInParts
// to the map-based constructions they replaced, on unsorted query sets
// with repeats and on part lists with repeats, gaps and unknown ids.
func TestPartHelpersMatchMapReference(t *testing.T) {
	g := randomConnected(t, 300, 600, 31)
	res, err := KWay(g, 7, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 200; iter++ {
		queries := make([]int, 1+rng.Intn(6))
		for i := range queries {
			queries[i] = rng.Intn(g.N())
		}
		set := make(map[int]bool)
		for _, u := range queries {
			set[res.Assign[u]] = true
		}
		wantParts := make([]int, 0, len(set))
		for p := range set {
			wantParts = append(wantParts, p)
		}
		sort.Ints(wantParts)
		if got := res.PartsContaining(queries); !slices.Equal(got, wantParts) {
			t.Fatalf("PartsContaining(%v) = %v, want %v", queries, got, wantParts)
		}

		parts := make([]int, rng.Intn(5))
		for i := range parts {
			parts[i] = rng.Intn(res.K+2) - 1 // -1 and K name no part
		}
		want := make(map[int]bool)
		for _, p := range parts {
			want[p] = true
		}
		var wantNodes []int
		for u, p := range res.Assign {
			if want[p] {
				wantNodes = append(wantNodes, u)
			}
		}
		if got := res.NodesInParts(parts); !slices.Equal(got, wantNodes) {
			t.Fatalf("NodesInParts(%v) = %v, want %v", parts, got, wantNodes)
		}
	}
}
