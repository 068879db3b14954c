package extract

import (
	"cmp"
	"math"
	"slices"

	"ceps/internal/graph"
)

// scratch is the per-query state of one EXTRACT run: the destination heap
// of Eq. 11, one lazily extended score order per source, and the Table 3
// DP buffers that every key path of the query reuses. A scratch serves one
// query at a time; reset readies it for the next.
type scratch struct {
	g             *graph.Graph
	combined      []float64
	inH, excluded []bool
	dest          scoreHeap
	srcs          []sourceOrder
	best          []float64
	reach         []span  // reach[k] covers every finite DP state of nodes[k]
	slot          []int32 // per rank from the source's to pd's: ancestor index or -1
	nodes         []int32 // pd's ancestors in rank order, pd last
	batch         []scored
	up            []int32 // the query's uphill lists, all sources
}

// scored pairs a node with its score for sorting without indirection.
type scored struct {
	score float64
	id    int32
}

// span is an inclusive range of path lengths s; lo > hi when empty.
type span struct{ lo, hi int32 }

// sourceOrder is source q_i's view of the graph: nodes sorted by
// descending r(i, ·), ties by ascending id, and for every ordered node the
// ranks of its uphill neighbours. The order only grows as deep as the
// lowest destination score the query has asked about.
type sourceOrder struct {
	ri []float64
	// ids holds every node scoring at least floor, sorted; ids[:next] are
	// ranked, the rest wait their turn.
	ids   []int32
	floor float64
	next  int
	rank  []int32 // rank[v] = v's index in ids once ordered, else -1
	// upAt[r] locates ids[r]'s uphill list, built on first use: the ranks
	// of its neighbours with a strictly higher score, in adjacency order,
	// which are exactly the "specified downhill" edges into ids[r].
	upAt  []upList
	built bool
}

// upList is a range of the scratch's uphill arena; start < 0 until built.
type upList struct{ start, end int32 }

// reset readies sc for a query on g with individual scores R and combined
// scores combined. Nodes already in H (the queries) and nodes with no
// positive combined score never enter the destination heap.
func (sc *scratch) reset(g *graph.Graph, R [][]float64, combined []float64, inH []bool) {
	sc.g, sc.combined = g, combined
	ids := sc.dest.ids[:0]
	for v, c := range combined {
		if c > 0 && !inH[v] {
			ids = append(ids, int32(v))
		}
	}
	sc.dest.init(combined, ids)
	if cap(sc.srcs) < len(R) {
		sc.srcs = append(sc.srcs[:cap(sc.srcs)], make([]sourceOrder, len(R)-cap(sc.srcs))...)
	}
	sc.srcs = sc.srcs[:len(R)]
	sc.up = sc.up[:0]
	for i := range sc.srcs {
		sc.srcs[i].ri = R[i]
		sc.srcs[i].built = false
	}
}

// flags returns cleared n-entry flags for the query: membership in H, and
// the destinations proven unreachable.
func (sc *scratch) flags(n int) (inH, excluded []bool) {
	if cap(sc.inH) < n {
		sc.inH, sc.excluded = make([]bool, n), make([]bool, n)
	}
	sc.inH, sc.excluded = sc.inH[:n], sc.excluded[:n]
	clear(sc.inH)
	clear(sc.excluded)
	return sc.inH, sc.excluded
}

// release drops the references sc holds into the finished query's inputs,
// so a pooled scratch does not keep a graph or score rows alive.
func (sc *scratch) release() {
	sc.g, sc.combined, sc.dest.score = nil, nil, nil
	for i := range sc.srcs {
		sc.srcs[i].ri = nil
	}
}

// nextDestination implements Eq. 11: the highest combined score among nodes
// outside H that have not been proven unreachable, ties to the lowest id.
// Nodes leave H's complement for good, so ineligible nodes are popped and
// dropped; so is the returned node, which the caller adds to H or
// excludes. -1 means nothing promising remains.
func (sc *scratch) nextDestination(inH, excluded []bool) int {
	for len(sc.dest.ids) > 0 {
		v := sc.dest.pop()
		if !inH[v] && !excluded[v] {
			return int(v)
		}
	}
	return -1
}

// source returns source i's order, readied on first use.
func (sc *scratch) source(i int) *sourceOrder {
	o := &sc.srcs[i]
	if o.built {
		return o
	}
	o.built = true
	n := len(o.ri)
	if cap(o.rank) < n {
		o.rank = make([]int32, n)
	}
	o.rank = o.rank[:n]
	for v := range o.rank {
		o.rank[v] = -1
	}
	o.ids, o.floor, o.next = o.ids[:0], math.Inf(1), 0
	o.upAt = o.upAt[:0]
	return o
}

// extend orders source o's nodes until v has a rank. When v scores below
// every node gathered so far, one O(n) scan first gathers the nodes in
// [ri[v], floor) and sorts them onto the end of ids. Every neighbour
// strictly above a node is ordered before it, so its uphill ranks are
// known on arrival. ri[v] must be below some node's score, so neither
// NaN nor +Inf.
func (sc *scratch) extend(o *sourceOrder, v int) {
	if t := o.ri[v]; t < o.floor {
		first := len(o.ids) == 0 // floor is +Inf: gather +Inf scores too
		batch := sc.batch[:0]
		for u, x := range o.ri {
			if x >= t && (first || x < o.floor) {
				batch = append(batch, scored{x, int32(u)})
			}
		}
		slices.SortFunc(batch, func(a, b scored) int {
			switch {
			case a.score > b.score:
				return -1
			case a.score < b.score:
				return 1
			}
			return cmp.Compare(a.id, b.id)
		})
		for _, e := range batch {
			o.ids = append(o.ids, e.id)
		}
		sc.batch, o.floor = batch, t
	}
	for o.rank[v] < 0 {
		o.rank[o.ids[o.next]] = int32(o.next)
		o.upAt = append(o.upAt, upList{-1, -1})
		o.next++
	}
}

// uphill returns the uphill list of the node at rank r of source o,
// building it on first use. Every uphill neighbour outranks it, so is
// ordered already.
func (sc *scratch) uphill(o *sourceOrder, r int) []int32 {
	at := &o.upAt[r]
	if at.start < 0 {
		v := o.ids[r]
		at.start = int32(len(sc.up))
		nbrs, _ := sc.g.Neighbors(int(v))
		for _, w := range nbrs {
			if o.ri[w] > o.ri[v] {
				sc.up = append(sc.up, o.rank[w])
			}
		}
		at.end = int32(len(sc.up))
	}
	return sc.up[at.start:at.end]
}

// keyPath discovers the best downhill path from source i (query node src)
// to destination pd (Table 3): among all "specified prefix paths" that
// start at src, strictly descend r(i, ·), and end at pd, it returns the one
// maximizing (Σ_{v on path} r(Q, v)) / s where s is the number of nodes not
// already in H, subject to s ≤ maxNew. The returned path runs
// source→…→pd. ok is false when pd is unreachable by a downhill path
// within the budget.
//
// The candidates are the nodes strictly above pd, plus pd. Nodes above src
// are never reached from it, so the DP walks source i's order from src's
// rank to pd's and keeps states only for pd and its ancestors in the
// downhill DAG, which all score strictly above pd: nodes tied with pd stay
// out. Every uphill neighbour of a node has a smaller rank, so its states
// are final when pulled (Table 3's "fill the extracted matrix C in
// topological order"), and each node pulls them in adjacency order, so
// values and tie-breaks match a DP over the whole candidate set.
func (sc *scratch) keyPath(i, src, pd int, inH []bool, maxNew int, noSharing bool) ([]int, bool) {
	o := sc.source(i)
	if !(o.ri[src] > o.ri[pd]) {
		return nil, false // source not uphill of destination: no downhill path
	}
	costOf := func(v int32) int { // new nodes a path pays for v
		if inH[v] && !noSharing {
			return 0
		}
		return 1
	}
	srcCost := costOf(int32(src)) // sources are normally in H already; be safe
	if srcCost > maxNew {
		return nil, false
	}
	sc.extend(o, pd)
	base, pdRank := int(o.rank[src]), int(o.rank[pd])
	rows := pdRank - base + 1 // row r-base stands for ids[r]

	// Only pd's ancestors can lie on a path to it, and an ancestor's
	// uphill neighbours are ancestors too, so a backward sweep marks them
	// and the DP keeps states for no other row. An unmarked source row
	// means no downhill path exists.
	if cap(sc.slot) < rows {
		sc.slot = make([]int32, rows)
	}
	slot := sc.slot[:rows] // slot[row]: the row's index among the ancestors, or -1
	for row := range slot {
		slot[row] = -1
	}
	slot[rows-1] = 0
	for row := rows - 1; row > 0; row-- {
		if slot[row] < 0 {
			continue
		}
		r := base + row
		for _, ur := range sc.uphill(o, r) {
			if ul := int(ur) - base; ul >= 0 {
				slot[ul] = 0
			}
		}
	}
	if slot[0] < 0 {
		return nil, false
	}
	nodes := sc.nodes[:0] // nodes[k]: the node of ancestor slot k, in rank order
	for row, k := range slot {
		if k == 0 {
			slot[row] = int32(len(nodes))
			nodes = append(nodes, o.ids[base+row])
		}
	}
	sc.nodes = nodes

	width := maxNew + 1
	size := len(nodes) * width
	if cap(sc.best) < size {
		sc.best = make([]float64, size)
	}
	if cap(sc.reach) < len(nodes) {
		sc.reach = make([]span, len(nodes))
	}
	best, reach := sc.best[:size], sc.reach[:len(nodes)]
	for k := range best[:width] {
		best[k] = math.Inf(-1)
	}
	best[srcCost] = sc.combined[src]
	reach[0] = span{int32(srcCost), int32(srcCost)}

	// Each ancestor pulls its states from every uphill neighbour in
	// adjacency order. Only the span of states a neighbour can have
	// reached is scanned; the spans are supersets, and the -Inf states
	// inside them give -Inf or NaN, never an update.
	for k := 1; k < len(nodes); k++ {
		v := nodes[k]
		cost, cv := costOf(v), sc.combined[v]
		vBase := k * width
		for j := range best[vBase : vBase+width] {
			best[vBase+j] = math.Inf(-1)
		}
		got := span{int32(width), -1}
		for _, ur := range sc.uphill(o, int(o.rank[v])) {
			ul := int(ur) - base
			if ul < 0 {
				continue // above the source: unreachable from it
			}
			u := int(slot[ul])
			sLo, sHi := int(reach[u].lo)+cost, min(int(reach[u].hi)+cost, width-1)
			if sLo > sHi {
				continue
			}
			got.lo, got.hi = min(got.lo, int32(sLo)), max(got.hi, int32(sHi))
			// State s of v pulls state s-cost of u.
			from := u*width - cost
			prev := best[from+sLo : from+sHi+1]
			cur := best[vBase+sLo : vBase+sHi+1][:len(prev)]
			for j, p := range prev {
				if c := p + cv; c > cur[j] {
					cur[j] = c
				}
			}
		}
		reach[k] = got
	}

	// Output the path maximizing C_s(i, pd)/s with s ≥ 1 (Table 3 step 3).
	pdBase := (len(nodes) - 1) * width
	bestS, bestRatio := -1, math.Inf(-1)
	for s := 1; s < width; s++ {
		if math.IsInf(best[pdBase+s], -1) {
			continue
		}
		if ratio := best[pdBase+s] / float64(s); ratio > bestRatio {
			bestRatio, bestS = ratio, s
		}
	}
	if bestS < 0 {
		return nil, false
	}
	// Reconstruct pd → src, then reverse. The DP replaced a state only by
	// a strictly larger value, so a state's predecessor is the first
	// uphill neighbour, in adjacency order, whose pull equals its value.
	rev := []int{pd}
	for k, s := len(nodes)-1, bestS; k > 0; {
		v := nodes[k]
		want, cv, from := best[k*width+s], sc.combined[v], -1
		s -= costOf(v)
		for _, ur := range sc.uphill(o, int(o.rank[v])) {
			if ul := int(ur) - base; ul >= 0 && best[int(slot[ul])*width+s]+cv == want {
				from = int(slot[ul])
				break
			}
		}
		if from < 0 {
			panic("extract: key path state has no predecessor")
		}
		k = from
		rev = append(rev, int(nodes[k]))
	}
	for a, b := 0, len(rev)-1; a < b; a, b = a+1, b-1 {
		rev[a], rev[b] = rev[b], rev[a]
	}
	return rev, true
}

// scoreHeap is a binary max-heap of node ids under (score descending, id
// ascending), so successive pops list nodes exactly as a stable descending
// sort by score would.
type scoreHeap struct {
	score []float64
	ids   []int32
}

// init heapifies ids over score in O(len(ids)).
func (h *scoreHeap) init(score []float64, ids []int32) {
	h.score, h.ids = score, ids
	for i := len(ids)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// before reports whether a pops before b.
func (h *scoreHeap) before(a, b int32) bool {
	sa, sb := h.score[a], h.score[b]
	return sa > sb || (sa == sb && a < b)
}

// pop removes and returns the first node; the heap must not be empty.
func (h *scoreHeap) pop() int32 {
	top := h.ids[0]
	last := len(h.ids) - 1
	h.ids[0] = h.ids[last]
	h.ids = h.ids[:last]
	h.down(0)
	return top
}

func (h *scoreHeap) down(i int) {
	ids := h.ids
	if i >= len(ids) {
		return
	}
	v := ids[i]
	for {
		c := 2*i + 1
		if c >= len(ids) {
			break
		}
		if r := c + 1; r < len(ids) && h.before(ids[r], ids[c]) {
			c = r
		}
		if !h.before(ids[c], v) {
			break
		}
		ids[i] = ids[c]
		i = c
	}
	ids[i] = v
}
