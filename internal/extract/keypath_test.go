package extract

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"ceps/internal/graph"
)

// White-box tests of the Table 3 key-path dynamic program.

// testScratch readies a scratch for one query whose only source scores ri.
func testScratch(g *graph.Graph, ri, combined []float64) *scratch {
	sc := new(scratch)
	sc.reset(g, [][]float64{ri}, nil, combined, make([]bool, g.N()))
	return sc
}

// TestUphillMaskTies pins UphillMask's predicate slot by slot: w is uphill
// of u iff r(i, w) > r(i, u), so neither side of a tie is uphill of the
// other, +0 and −0 included. It also checks that no other bit is set and
// that uphill lists built from the bitmask equal the scanned ones.
func TestUphillMaskTies(t *testing.T) {
	b := graph.NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 4}, {2, 3}, {3, 4}, {4, 5}} {
		b.AddEdge(e[0], e[1], 1)
	}
	g := b.MustBuild()
	ri := []float64{0.5, 0.5, 0.25, 0.75, 0, math.Copysign(0, -1)}
	mask := UphillMask(g, ri)
	for _, c := range []struct {
		u, w   int
		uphill bool
	}{
		{0, 1, false}, {1, 0, false}, // tied at 0.5
		{0, 2, false}, {2, 0, true},
		{0, 3, true}, {3, 0, false},
		{1, 4, false}, {4, 1, true},
		{2, 3, true}, {3, 2, false},
		{3, 4, false}, {4, 3, true},
		{4, 5, false}, {5, 4, false}, // +0 and −0 are equal scores
	} {
		nbrs, _ := g.Neighbors(c.u)
		s := g.Slot(c.u) + slices.Index(nbrs, c.w)
		if got := mask[s/64]>>(s%64)&1 == 1; got != c.uphill {
			t.Errorf("slot (%d, %d): bit %v, want %v", c.u, c.w, got, c.uphill)
		}
	}
	set := 0
	for _, word := range mask {
		set += bits.OnesCount64(word)
	}
	if set != 5 {
		t.Errorf("%d bits set, want 5", set)
	}
	scan, masked := testScratch(g, ri, ri), testScratch(g, ri, ri)
	masked.srcs[0].mask = mask
	for v := range g.N() {
		a, m := scan.enter(&scan.srcs[0], int32(v)), masked.enter(&masked.srcs[0], int32(v))
		sh, mh := scan.srcs[0].hdr[a], masked.srcs[0].hdr[m]
		if !slices.Equal(scan.up[sh.start:sh.end], masked.up[mh.start:mh.end]) {
			t.Errorf("node %d: uphill list %v from the bitmask, %v scanned", v,
				masked.up[mh.start:mh.end], scan.up[sh.start:sh.end])
		}
	}
}

func TestKeyPathStraightLine(t *testing.T) {
	// 0-1-2-3 with strictly decreasing source scores from node 0: the only
	// downhill path from 0 to 3 is the line itself.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	g := b.MustBuild()
	ri := []float64{0.5, 0.3, 0.2, 0.1}
	combined := []float64{0.5, 0.3, 0.2, 0.1}
	inH := []bool{true, false, false, false}

	dp := testScratch(g, ri, combined)
	path, ok := dp.keyPath(0, 0, 3, inH, 3, false)
	if !ok {
		t.Fatal("path not found")
	}
	want := []int{0, 1, 2, 3}
	if len(path) != 4 {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestKeyPathRespectsLengthCap(t *testing.T) {
	// Same line, but only 2 new nodes allowed: 0→1→2→3 needs 3 new nodes,
	// so no path exists.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	g := b.MustBuild()
	ri := []float64{0.5, 0.3, 0.2, 0.1}
	combined := ri
	inH := []bool{true, false, false, false}
	dp := testScratch(g, ri, combined)
	if _, ok := dp.keyPath(0, 0, 3, inH, 2, false); ok {
		t.Fatal("path should be blocked by the new-node cap")
	}
	// With the middle nodes joined to H the path costs only 1 new node. The
	// first call stored their states; the joins make them stale.
	for _, v := range []int{1, 2} {
		inH[v] = true
		dp.join(v)
	}
	path, ok := dp.keyPath(0, 0, 3, inH, 1, false)
	if !ok {
		t.Fatal("path through existing nodes should fit in cap 1")
	}
	if len(path) != 4 {
		t.Fatalf("unexpected path %v", path)
	}
}

func TestKeyPathPrefersSharedNodes(t *testing.T) {
	// Diamond: 0→1→3 and 0→2→3 are both downhill with equal combined
	// goodness, but node 1 is already in H, so the DP must route through it
	// (its path has s=1 vs s=2, same captured score).
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 2, 1)
	b.AddEdge(1, 3, 1)
	b.AddEdge(2, 3, 1)
	g := b.MustBuild()
	ri := []float64{0.5, 0.3, 0.3, 0.1}
	combined := []float64{0.5, 0.2, 0.2, 0.1}
	inH := []bool{true, true, false, false}
	dp := testScratch(g, ri, combined)
	path, ok := dp.keyPath(0, 0, 3, inH, 3, false)
	if !ok {
		t.Fatal("path not found")
	}
	if len(path) != 3 || path[1] != 1 {
		t.Fatalf("path = %v, want [0 1 3] through the existing node", path)
	}
}

func TestKeyPathStrictlyDownhill(t *testing.T) {
	// The returned path must strictly descend ri.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(3, 4, 1)
	b.AddEdge(0, 5, 1)
	b.AddEdge(5, 4, 1)
	g := b.MustBuild()
	ri := []float64{0.9, 0.5, 0.4, 0.3, 0.1, 0.05} // node 5 below pd: unusable
	combined := []float64{0.9, 0.5, 0.4, 0.3, 0.1, 0.05}
	inH := []bool{true, false, false, false, false, false}
	dp := testScratch(g, ri, combined)
	path, ok := dp.keyPath(0, 0, 4, inH, 5, false)
	if !ok {
		t.Fatal("path not found")
	}
	for i := 1; i < len(path); i++ {
		if ri[path[i]] >= ri[path[i-1]] {
			t.Fatalf("path %v is not strictly downhill at step %d", path, i)
		}
	}
	for _, u := range path {
		if u == 5 {
			t.Fatalf("path %v uses node 5, which is below the destination's score", path)
		}
	}
}

func TestKeyPathSourceNotUphill(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1, 1)
	g := b.MustBuild()
	dp := testScratch(g, []float64{0.5, 0.5}, []float64{1, 1})
	// Source score equals destination score: no strictly downhill path.
	if _, ok := dp.keyPath(0, 0, 1, []bool{true, false}, 3, false); ok {
		t.Fatal("equal-score source should have no downhill path")
	}
}

func TestKeyPathPicksDenserGoodness(t *testing.T) {
	// Two routes to pd: a direct edge (s=1, captures little) and a detour
	// through a high-goodness node (s=2, captures a lot). The ratio rule
	// C_s/s decides; make the detour twice as good per new node.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 3, 1) // direct
	b.AddEdge(0, 1, 1) // detour start
	b.AddEdge(1, 3, 1)
	b.AddEdge(2, 3, 1) // unrelated
	g := b.MustBuild()
	ri := []float64{0.9, 0.5, 0.4, 0.1}
	// combined goodness: node 1 is extremely valuable.
	combined := []float64{0.2, 10, 0.1, 0.2}
	inH := []bool{true, false, false, false}
	dp := testScratch(g, ri, combined)
	path, ok := dp.keyPath(0, 0, 3, inH, 3, false)
	if !ok {
		t.Fatal("path not found")
	}
	// direct: (0.2+0.2)/1 = 0.4 ; detour: (0.2+10+0.2)/2 = 5.2 → detour.
	if len(path) != 3 || path[1] != 1 {
		t.Fatalf("path = %v, want the high-goodness detour [0 1 3]", path)
	}
}

func TestKeyPathReusableScratch(t *testing.T) {
	// A scratch reset for a new query must not leak the previous query's
	// orders, uphill lists or DP state.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1)
	g := b.MustBuild()
	ri1 := []float64{0.9, 0.5, 0.1, 0, 0}
	dp := testScratch(g, ri1, ri1)
	if _, ok := dp.keyPath(0, 0, 2, []bool{true, false, false, false, false}, 3, false); !ok {
		t.Fatal("first query failed")
	}
	// Second query in the other component; nodes 0–2 must not be candidates.
	ri2 := []float64{0, 0, 0, 0.9, 0.3}
	inH := []bool{false, false, false, true, false}
	dp.reset(g, [][]float64{ri2}, nil, ri2, inH)
	path, ok := dp.keyPath(0, 3, 4, inH, 3, false)
	if !ok {
		t.Fatal("second query failed")
	}
	for _, u := range path {
		if u <= 2 {
			t.Fatalf("stale candidate leaked into path %v", path)
		}
	}
}

func TestKeyPathRatioHandlesInfinity(t *testing.T) {
	// A node with zero combined score everywhere still yields a valid
	// (zero-ratio) path rather than NaN.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	g := b.MustBuild()
	ri := []float64{0.9, 0.5, 0.1}
	combined := []float64{0, 0, 0}
	dp := testScratch(g, ri, combined)
	path, ok := dp.keyPath(0, 0, 2, []bool{true, false, false}, 3, false)
	if !ok {
		t.Fatal("zero-goodness path should still be found")
	}
	if len(path) != 3 {
		t.Fatalf("path = %v", path)
	}
	_ = math.Inf // keep math import honest
}

// bruteKeyPath is Table 3's objective by enumeration: over every strictly
// descending path src → pd in g under ri that pays 1 ≤ s ≤ maxNew new
// nodes (each node costs 1 unless it is in H and sharing is on), the
// largest C/s, where C sums r(Q, ·) left to right from src as the DP adds
// it. ok is false when no such path exists.
func bruteKeyPath(g *graph.Graph, ri, combined []float64, src, pd int, inH []bool, maxNew int, noSharing bool) (best float64, ok bool) {
	cost := func(v int) int {
		if inH[v] && !noSharing {
			return 0
		}
		return 1
	}
	var walk func(v int, c float64, s int)
	walk = func(v int, c float64, s int) {
		if s > maxNew { // s never falls along a path
			return
		}
		if v == pd {
			if ratio := c / float64(s); s >= 1 && (!ok || ratio > best) {
				best, ok = ratio, true
			}
			return
		}
		nbrs, _ := g.Neighbors(v)
		for _, w := range nbrs {
			if ri[w] < ri[v] && (w == pd || ri[w] > ri[pd]) {
				walk(w, c+combined[w], s+cost(w))
			}
		}
	}
	if ri[src] > ri[pd] {
		walk(src, combined[src], cost(src))
	}
	return best, ok
}

// TestKeyPathMatchesBruteForce checks the DP against the mathematics it
// implements rather than against another implementation: on small random
// graphs, keyPath finds a path iff a descending path within the budget
// exists, and the path it returns is descending, within budget, and
// reaches the enumerated maximum of C/s bit for bit. Adding r(Q, v) and
// dividing by s are both monotone under rounding, so the DP's maximum of
// rounded sums is the maximum over paths; the test pins that exactness.
func TestKeyPathMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var calls, found int
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(11)
		g := hubGraph(rng, n)
		R := [][]float64{tiedScores(rng, n, []int{0, 3, 6}[rng.Intn(3)])}
		combined := tiedScores(rng, n, []int{0, 4}[rng.Intn(2)])
		if trial%3 == 0 {
			combined = quantize(combined, 3)
		}
		inH := make([]bool, n)
		sc := new(scratch)
		for call := 0; call < 8; call++ {
			for v := range inH {
				inH[v] = rng.Intn(3) == 0
			}
			sc.reset(g, R, nil, combined, inH) // H is rewritten, not grown by joins
			src, pd := rng.Intn(n), rng.Intn(n)
			if rng.Intn(2) == 0 { // a source at the top reaches most nodes
				for v, x := range R[0] {
					if x > R[0][src] {
						src = v
					}
				}
			}
			maxNew := 1 + rng.Intn(6)
			noSharing := rng.Intn(2) == 0
			want, wantOK := bruteKeyPath(g, R[0], combined, src, pd, inH, maxNew, noSharing)
			path, ok := sc.keyPath(0, src, pd, inH, maxNew, noSharing)
			calls++
			if ok != wantOK {
				t.Fatalf("trial %d call %d: keyPath(src %d, pd %d, maxNew %d, noSharing %v) ok = %v, brute force %v",
					trial, call, src, pd, maxNew, noSharing, ok, wantOK)
			}
			if !ok {
				continue
			}
			found++
			if path[0] != src || path[len(path)-1] != pd {
				t.Fatalf("trial %d call %d: path %v does not run %d → %d", trial, call, path, src, pd)
			}
			c, s := combined[src], 0
			for k, v := range path {
				if !inH[v] || noSharing {
					s++
				}
				if k == 0 {
					continue
				}
				u := path[k-1]
				if !(R[0][v] < R[0][u]) || g.Weight(u, v) == 0 {
					t.Fatalf("trial %d call %d: step %d → %d of %v is not a descending edge", trial, call, u, v, path)
				}
				c += combined[v]
			}
			if s < 1 || s > maxNew {
				t.Fatalf("trial %d call %d: path %v pays %d new nodes, budget %d", trial, call, path, s, maxNew)
			}
			if got := c / float64(s); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d call %d: path %v has C/s = %v, brute-force maximum %v", trial, call, path, got, want)
			}
		}
	}
	if found < calls/4 || found > calls*3/4 {
		t.Fatalf("weak coverage: %d calls, %d found paths", calls, found)
	}
}

// TestKeyPathVisitsOnlyAncestors pads a small scored component with a
// large one scoring below pd and checks the cost model: a key path builds
// uphill lists only for pd and its ancestors ranked at or below src, never
// for the padding or for nodes that lead elsewhere.
func TestKeyPathVisitsOnlyAncestors(t *testing.T) {
	const small, pad = 8, 2000
	n := small + pad
	b := graph.NewBuilder(n)
	// Scored component, source 1 at 0.8 and pd = 6 at 0.2:
	//   0 (0.9, above src) – 2, 0 – 6
	//   1 → 2 (0.6) → 4 (0.4) → 6;  1 → 3 (0.5) → 6
	//   1 → 5 (0.3), 5 – 7 (0.25): downhill from src, not toward pd
	for _, e := range [][2]int{{0, 2}, {0, 6}, {1, 2}, {2, 4}, {4, 6}, {1, 3}, {3, 6}, {1, 5}, {5, 7}} {
		b.AddEdge(e[0], e[1], 1)
	}
	ri := make([]float64, n)
	copy(ri, []float64{0.9, 0.8, 0.6, 0.5, 0.4, 0.3, 0.2, 0.25})
	rng := rand.New(rand.NewSource(3))
	for v := small; v < n; v++ { // padding: a random tree hung off pd
		parent := 6
		if v > small && rng.Intn(4) > 0 {
			parent = small + rng.Intn(v-small)
		}
		b.AddEdge(v, parent, 1)
		ri[v] = 0.1 * rng.Float64()
	}
	g := b.MustBuild()
	combined := make([]float64, n)
	for v := range combined {
		combined[v] = ri[v]
	}
	inH := make([]bool, n)
	inH[1] = true
	sc := new(scratch)
	sc.reset(g, [][]float64{ri}, nil, combined, inH)
	if _, ok := sc.keyPath(0, 1, 6, inH, 4, false); !ok {
		t.Fatal("no key path from 1 to 6")
	}
	var built []int
	for _, h := range sc.srcs[0].hdr {
		built = append(built, int(h.node))
	}
	slices.Sort(built)
	// pd and its ancestors 2, 3, 4 below src; not src (it pulls nothing),
	// not 0 (above src), not 5 or 7 (no path to pd), not the padding.
	if want := []int{2, 3, 4, 6}; !slices.Equal(built, want) {
		t.Fatalf("uphill lists built for %v, want %v", built, want)
	}
	for _, w := range sc.up {
		if w >= small {
			t.Fatalf("padding node %d entered an uphill list", w)
		}
	}
}

// TestKeyPathJoinInvalidatesStoredStates checks that a join makes the
// stored states it changes stale. Source 0 reaches node 3 through 1 or 2,
// and pd 5 through 3 or 6:
//
//	0 (1.0) – 1 (0.8), 2 (0.7), 6 (0.45);  1, 2 – 3 (0.5);  3 – 4 (0.3);  3, 6 – 5 (0.2)
//
// The first key path, toward 4, stores the states of 1, 2 and 3. Then a
// node joins H: 1, which changes 3's best route, or 3 itself, which ties
// with its own stored row. The second key path, toward 5, must see the
// join.
func TestKeyPathJoinInvalidatesStoredStates(t *testing.T) {
	b := graph.NewBuilder(7)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 6}, {1, 3}, {2, 3}, {3, 4}, {3, 5}, {6, 5}} {
		b.AddEdge(e[0], e[1], 1)
	}
	g := b.MustBuild()
	ri := []float64{1, 0.8, 0.7, 0.5, 0.3, 0.2, 0.45}
	combined := []float64{0.1, 0.3, 0.4, 0.2, 0.5, 0.5, 0.45}
	for _, c := range []struct {
		join int
		want []int
	}{
		{1, []int{0, 1, 3, 5}}, // 3 pays nothing for 1 now: (0.1+0.3+0.2+0.5)/2
		{3, []int{0, 2, 3, 5}}, // 3 is free: (0.1+0.4+0.2+0.5)/2 beats 0→6→5
	} {
		inH := make([]bool, g.N())
		inH[0] = true
		sc := testScratch(g, ri, combined)
		if path, ok := sc.keyPath(0, 0, 4, inH, 4, false); !ok || !slices.Equal(path, []int{0, 2, 3, 4}) {
			t.Fatalf("first key path = (%v, %v), want [0 2 3 4]", path, ok)
		}
		if a := sc.srcs[0].at[3]; int(a) >= len(sc.srcs[0].hdr) || sc.srcs[0].hdr[a].node != 3 {
			t.Fatal("the first key path stored no states for node 3")
		}
		inH[c.join] = true
		sc.join(c.join)
		want, wantOK := newRefPathDP(g, g.N()).keyPath(ri, combined, 0, 5, inH, 4, false)
		got, gotOK := sc.keyPath(0, 0, 5, inH, 4, false)
		if !equalPath(got, gotOK, want, wantOK) || !slices.Equal(got, c.want) {
			t.Fatalf("after %d joined: keyPath = (%v, %v), reference (%v, %v), want %v", c.join, got, gotOK, want, wantOK, c.want)
		}
	}
}
