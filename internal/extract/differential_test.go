package extract

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ceps/internal/graph"
	"ceps/internal/score"
)

// Differential tests: the walk-based key-path DP and the batched
// destination selection against the reference implementation in
// reference_test.go.

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
		ref := newRefPathDP(g, n)
		for call := 0; call < 42; call++ {
			hProb := rng.Float64() * 0.5
			for v := range inH {
				inH[v] = rng.Float64() < hProb
			}
			sc.reset(g, R, nil, combined, inH) // H is rewritten, not grown by joins
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
			if trial%2 == 1 {
				in.Uphill = uphillMasks(g, R)
			}
			want := refExtract(t, in) // also checks every pick and key path
			got, err := Extract(in)
			if err != nil {
				t.Fatal(err)
			}
			if msg := diffResults(got, want); msg != "" {
				t.Fatalf("trial %d k=%d budget=%d maxLen=%d noSharing=%v bitmasks %v: %s",
					trial, k, in.Budget, in.MaxPathLen, in.NoSharing, in.Uphill != nil, msg)
			}
		}
	}
}

// TestExtractIgnoresMisfitBitmask: a bitmask one word short of G's
// adjacency, all clear, is ignored rather than read, so the answer is the
// scan's.
func TestExtractIgnoresMisfitBitmask(t *testing.T) {
	g := randomGraph(t, 300, 900, 4)
	queries := []int{1, 2}
	R, combined := scoresFor(t, g, queries, score.AND{})
	in := Input{G: g, Queries: queries, R: R, Combined: combined, K: 2, Budget: 10}
	want, err := Extract(in)
	if err != nil {
		t.Fatal(err)
	}
	in.Uphill = [][]uint64{make([]uint64, maskWords(g)-1), UphillMask(g, R[1])}
	got, err := Extract(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Destinations) == 0 {
		t.Fatal("no destination: the comparison shows nothing")
	}
	if msg := diffResults(got, want); msg != "" {
		t.Fatal(msg)
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

// keyPathCase is one fuzzed key-path call on a one-source query.
type keyPathCase struct {
	g               *graph.Graph
	ri, combined    []float64
	inH             []bool
	src, pd, maxNew int
	noSharing       bool
}

// decodeKeyPathCase reads a key-path call from fuzz bytes: a header of
// four bytes (node count, src, pd, then maxNew in the low nibble and the
// no-sharing flag in bit 4), one byte per node (r(i, ·) in 8 levels in bits
// 0–2, H membership in bit 3, r(Q, ·) in 16 levels in bits 4–7; missing
// bytes read as 0), and unit-weight edges as byte pairs. Eight score
// levels over up to 64 nodes make ties the rule.
func decodeKeyPathCase(data []byte) (keyPathCase, bool) {
	if len(data) < 4 {
		return keyPathCase{}, false
	}
	n := 1 + int(data[0])%64
	c := keyPathCase{
		src: int(data[1]) % n, pd: int(data[2]) % n,
		maxNew: 1 + int(data[3]&15), noSharing: data[3]&16 != 0,
		ri: make([]float64, n), combined: make([]float64, n), inH: make([]bool, n),
	}
	data = data[4:]
	for v := 0; v < n; v++ {
		var b byte
		if v < len(data) {
			b = data[v]
		}
		c.ri[v] = float64(b&7) / 8
		c.inH[v] = b&8 != 0
		c.combined[v] = float64(b>>4) / 16
	}
	data = data[min(n, len(data)):]
	bld := graph.NewBuilder(n)
	for ; len(data) >= 2; data = data[2:] {
		bld.AddEdge(int(data[0])%n, int(data[1])%n, 1)
	}
	g, err := bld.Build()
	if err != nil {
		return keyPathCase{}, false
	}
	c.g = g
	return c, true
}

// FuzzKeyPath holds the walk-based keyPath bit-identical to the reference
// DP, which sorts every candidate, on fuzzed graphs with tied scores. Each
// input makes two calls on one scratch, toward pd and then pd+1, so the
// second reuses the uphill lists and current states the first stored. Each
// input runs twice: scanning r(i, ·), then reading the uphill lists from
// UphillMask's bitmask.
func FuzzKeyPath(f *testing.F) {
	// Header, node bytes, edges; node byte = r(Q) level<<4 | H<<3 | r(i) level.
	seeds := [][]byte{
		// Nodes 1 and 3 tie with src 2 on both sides of its id; 0 ranks above.
		{4, 2, 4, 2, 0x57, 0x96, 0x3e, 0x76, 0x41,
			0, 4, 1, 4, 2, 4, 3, 4, 1, 2, 2, 3, 0, 2},
		// pd 2 ties with its neighbours 1 and 3.
		{3, 0, 2, 3, 0x2f, 0x83, 0x53, 0x93,
			0, 1, 1, 2, 2, 3, 0, 3, 0, 2},
		// Isolated src 0.
		{2, 0, 2, 1, 0x5f, 0x44, 0x62, 1, 2},
		// pd 1's only neighbour scores below it: an empty uphill list.
		{2, 0, 1, 2, 0x5f, 0x45, 0x62, 1, 2},
		// A hub above everything but the source, no sharing.
		{7, 0, 5, 0x14, 0x7f, 0x36, 0x45, 0x54, 0x63, 0x12, 0x21, 0x16,
			0, 7, 7, 1, 7, 2, 7, 3, 7, 4, 7, 5, 7, 6, 1, 2, 2, 3, 3, 4, 4, 5, 0, 1},
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := decodeKeyPathCase(data)
		if !ok {
			return
		}
		n := c.g.N()
		ref := newRefPathDP(c.g, n)
		for _, up := range [][]uint64{nil, UphillMask(c.g, c.ri)} {
			sc := new(scratch)
			sc.reset(c.g, [][]float64{c.ri}, [][]uint64{up}, c.combined, c.inH)
			for _, pd := range []int{c.pd, (c.pd + 1) % n} {
				want, wantOK := ref.keyPath(c.ri, c.combined, c.src, pd, c.inH, c.maxNew, c.noSharing)
				got, gotOK := sc.keyPath(0, c.src, pd, c.inH, c.maxNew, c.noSharing)
				if !equalPath(got, gotOK, want, wantOK) {
					t.Fatalf("keyPath(src %d, pd %d, maxNew %d, noSharing %v, bitmask %v) = (%v, %v), reference (%v, %v)",
						c.src, pd, c.maxNew, c.noSharing, up != nil, got, gotOK, want, wantOK)
				}
			}
		}
	})
}

// extractCase is a fuzzed EXTRACT query in readable form: r(i, ·) levels
// out of 8 per source, r(Q, ·) levels out of 16, unit-weight edges.
type extractCase struct {
	queries   []int
	k, budget int
	maxLen    int // 0: the default ceil(budget/k)
	noSharing bool
	ri        [][]byte // ri[i][v]: r(i, v) level
	combined  []byte
	edges     [][2]int
}

// encode writes c in decodeExtractCase's format.
func (c extractCase) encode() []byte {
	n, q := len(c.combined), len(c.queries)
	flags := byte(c.maxLen & 15)
	if c.noSharing {
		flags |= 16
	}
	data := []byte{byte(n - 1), byte(q-1) | byte(c.k-1)<<2, byte(c.budget - 1), flags}
	for _, v := range c.queries {
		data = append(data, byte(v))
	}
	for v := 0; v < n; v++ {
		data = append(data, c.combined[v])
		for i := 0; i < q; i++ {
			data = append(data, c.ri[i][v])
		}
	}
	for _, e := range c.edges {
		data = append(data, byte(e[0]), byte(e[1]))
	}
	return data
}

// decodeExtractCase reads an EXTRACT input from fuzz bytes: a header of
// four bytes (node count; query count in bits 0–1 and k in bits 2–3;
// budget; MaxPathLen in the low nibble and the no-sharing flag in bit 4),
// one byte per query node (taken mod n, the next free node on a clash),
// then per node one byte of r(Q, ·) in 16 levels and one byte per source of
// r(i, ·) in 8 levels (missing bytes read as 0), and unit-weight edges as
// byte pairs. Eight levels over up to 64 nodes make ties the rule.
func decodeExtractCase(data []byte) (Input, bool) {
	if len(data) < 4 {
		return Input{}, false
	}
	n := 1 + int(data[0])%64
	q := min(1+int(data[1]&3), n)
	in := Input{
		K:          1 + int(data[1]>>2&3),
		Budget:     1 + int(data[2])%24,
		MaxPathLen: int(data[3] & 15),
		NoSharing:  data[3]&16 != 0,
		Combined:   make([]float64, n),
		R:          make([][]float64, q),
	}
	data = data[4:]
	used := make([]bool, n)
	for i := 0; i < q; i++ {
		v := 0
		if i < len(data) {
			v = int(data[i]) % n
		}
		for used[v] {
			v = (v + 1) % n
		}
		used[v] = true
		in.Queries = append(in.Queries, v)
	}
	data = data[min(q, len(data)):]
	for i := range in.R {
		in.R[i] = make([]float64, n)
	}
	at := func(j int) byte {
		if j < len(data) {
			return data[j]
		}
		return 0
	}
	for v := 0; v < n; v++ {
		in.Combined[v] = float64(at(v*(q+1))&15) / 16
		for i := range in.R {
			in.R[i][v] = float64(at(v*(q+1)+1+i)&7) / 8
		}
	}
	data = data[min(n*(q+1), len(data)):]
	bld := graph.NewBuilder(n)
	for ; len(data) >= 2; data = data[2:] {
		bld.AddEdge(int(data[0])%n, int(data[1])%n, 1)
	}
	g, err := bld.Build()
	if err != nil {
		return Input{}, false
	}
	in.G = g
	return in, true
}

// FuzzExtract holds whole EXTRACT runs bit-identical to the reference
// Table 4 loop on fuzzed tied-score graphs. refExtract also drives a
// shadow scratch through the same rounds, joins included, and checks each
// pick and key path, so stored states are checked across every key path
// of the query. Each input runs twice: without Input.Uphill, then with
// every row's UphillMask.
func FuzzExtract(f *testing.F) {
	for _, c := range []extractCase{
		{ // Node 2 ties with source 1 and ranks below it, so the walk
			// from destination 5 enters it but no path from 1 does; 4
			// ties with 5.
			queries: []int{1}, k: 1, budget: 4,
			ri:       [][]byte{{7, 6, 6, 4, 2, 2}},
			combined: []byte{3, 9, 9, 6, 5, 8},
			edges:    [][2]int{{0, 1}, {1, 2}, {1, 4}, {2, 4}, {4, 5}, {0, 3}, {3, 5}, {2, 3}},
		},
		{ // A hub, 0, adjacent to every node, two sources, no sharing.
			queries: []int{1, 6}, k: 2, budget: 6, noSharing: true,
			ri:       [][]byte{{5, 7, 6, 4, 3, 2, 1, 1}, {5, 1, 2, 3, 4, 5, 7, 6}},
			combined: []byte{8, 4, 6, 7, 9, 7, 4, 6},
			edges: [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}, {0, 7},
				{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 7}, {7, 6}},
		},
		{ // Source 0's first key path stores 1, 2 and 3, and the joins
			// that follow make them stale before its path to 6.
			queries: []int{0, 4}, k: 2, budget: 8, maxLen: 4,
			ri:       [][]byte{{7, 6, 5, 4, 1, 3, 2}, {1, 2, 3, 4, 7, 6, 5}},
			combined: []byte{2, 9, 5, 12, 2, 4, 10},
			edges:    [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 6}, {4, 5}, {5, 3}, {5, 6}, {0, 5}},
		},
		{ // Budget 5 with paths of up to 4 new nodes: the width narrows
			// once H holds two new nodes.
			queries: []int{0}, k: 1, budget: 5, maxLen: 4,
			ri:       [][]byte{{7, 6, 5, 4, 3, 2, 1, 5, 4}},
			combined: []byte{1, 2, 3, 4, 5, 6, 15, 9, 14},
			edges:    [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {0, 7}, {7, 8}, {8, 6}},
		},
	} {
		f.Add(c.encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, ok := decodeExtractCase(data)
		if !ok {
			return
		}
		for _, up := range [][][]uint64{nil, uphillMasks(in.G, in.R)} {
			in.Uphill = up
			want := refExtract(t, in)
			got, err := Extract(in)
			if err != nil {
				t.Fatal(err)
			}
			if msg := diffResults(got, want); msg != "" {
				t.Fatalf("queries %v k=%d budget=%d maxLen=%d noSharing=%v bitmasks %v: %s",
					in.Queries, in.K, in.Budget, in.MaxPathLen, in.NoSharing, up != nil, msg)
			}
		}
	})
}

// uphillMasks returns UphillMask of every row of R.
func uphillMasks(g *graph.Graph, R [][]float64) [][]uint64 {
	up := make([][]uint64, len(R))
	for i, ri := range R {
		up[i] = UphillMask(g, ri)
	}
	return up
}
