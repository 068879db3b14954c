package extract

import (
	"math"
	"slices"

	"ceps/internal/graph"
)

// batchSize is how many destinations one selection pass over the combined
// scores gathers.
const batchSize = 64

// slotMask selects the slot half of a mark word; the stamp is the other.
const slotMask = 1<<32 - 1

// scratch is the per-query state of one EXTRACT run: the Eq. 11 destination
// batch, every source's uphill lists, and the Table 3 DP buffers that each
// key path of the query reuses. Nothing in it is O(n) per source except the
// sparse uphill index, which is never cleared. A scratch serves one query
// at a time; reset readies it for the next.
type scratch struct {
	g             *graph.Graph
	combined      []float64
	inH, excluded []bool

	dest []int32 // the batch the last selection pass gathered, in pick order
	pos  int     // dest[pos:] are not popped yet
	last int32   // the last node gathered so far; -1 before the first pass
	done bool    // no node is left after last

	srcs []source
	up   []int32 // the query's uphill lists, all sources

	// mark[v] is stamp<<32 | v's slot while v belongs to the walk stamped
	// stamp: one word per node, read with one load, and never cleared
	// between key paths.
	mark  []uint64
	stamp uint32
	nodes []int32   // nodes[k]: the node in slot k, in the walk's preorder, pd first
	best  []float64 // best[k*width+s]: C_s of slot k's node, -Inf while unreached
	reach []span    // reach[k] covers every finite state of slot k
	stack []frame
}

// source is source q_i's view of the graph for one query: its scores, and
// the uphill lists built so far. A node's uphill list holds its neighbours
// with a strictly higher r(i, ·), in adjacency order: exactly the
// "specified downhill" edges into it. at and hdr form a sparse set, so v's
// list is built iff at[v] < len(hdr) and hdr[at[v]].node == v, and at is
// never cleared.
type source struct {
	ri  []float64
	at  []uint32
	hdr []upList
}

// upList locates one node's uphill list in the scratch's arena.
type upList struct{ node, start, end int32 }

// frame is a node on the walk's stack: its slot, the unread part of its
// uphill list (up[cur:end]), and what a path pays and gains at it.
type frame struct {
	k, cur, end, cost int32
	cv                float64
}

// span is an inclusive range of path lengths s; lo > hi when empty.
type span struct{ lo, hi int32 }

// reset readies sc for a query on g with individual scores R and combined
// scores combined, and gathers the first destination batch: nodes already
// in H (the queries) and nodes with no positive combined score never enter
// it.
func (sc *scratch) reset(g *graph.Graph, R [][]float64, combined []float64, inH []bool) {
	sc.g, sc.combined, sc.last = g, combined, -1
	if cap(sc.srcs) < len(R) {
		sc.srcs = append(sc.srcs[:cap(sc.srcs)], make([]source, len(R)-cap(sc.srcs))...)
	}
	sc.srcs = sc.srcs[:len(R)]
	for i := range sc.srcs {
		o := &sc.srcs[i]
		o.ri, o.hdr = R[i], o.hdr[:0]
		if cap(o.at) < len(o.ri) {
			o.at = make([]uint32, len(o.ri))
		}
		o.at = o.at[:len(o.ri)]
	}
	sc.up = sc.up[:0]
	if n := len(combined); cap(sc.mark) < n {
		sc.mark, sc.stamp = make([]uint64, n), 0
	} else {
		sc.mark = sc.mark[:n]
	}
	sc.gather(inH)
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
	sc.g, sc.combined = nil, nil
	for i := range sc.srcs {
		sc.srcs[i].ri = nil
	}
}

// nextDestination implements Eq. 11: the highest combined score among nodes
// outside H that have not been proven unreachable, ties to the lowest id.
// Nodes leave H's complement for good, so destinations are popped in that
// order from batches, and ineligible ones are dropped; so is the returned
// node, which the caller adds to H or excludes. -1 means nothing promising
// remains.
func (sc *scratch) nextDestination(inH, excluded []bool) int {
	for {
		for sc.pos < len(sc.dest) {
			v := sc.dest[sc.pos]
			sc.pos++
			if !inH[v] && !excluded[v] {
				return int(v)
			}
		}
		if sc.done {
			return -1
		}
		sc.gather(inH)
	}
}

// gather is one selection pass: it replaces the batch with the next
// batchSize nodes in pick order (score descending, ties by ascending id)
// after the last node gathered so far, skipping nodes in H and nodes
// without a positive combined score. A short batch is the last one.
func (sc *scratch) gather(inH []bool) {
	c := sc.combined
	top := math.Inf(1) // the last gathered node's score; nodes above it are gone
	if sc.last >= 0 {
		top = c[sc.last]
	}
	// kept is a heap whose root is the kept node picked last. Nodes arrive
	// in ascending id order, so one tied with the root comes after it, and
	// a full heap admits only scores above the root's.
	kept, floor := sc.dest[:0], 0.0
	for v, x := range c {
		if !(x > floor) || inH[v] || x > top || x == top && int32(v) <= sc.last {
			continue
		}
		if len(kept) < batchSize {
			kept = append(kept, int32(v))
			siftUp(c, kept, len(kept)-1)
			if len(kept) < batchSize {
				continue
			}
		} else {
			kept[0] = int32(v)
			siftDown(c, kept, 0)
		}
		floor = c[kept[0]]
	}
	for n := len(kept) - 1; n > 0; n-- { // heapsort into pick order
		kept[0], kept[n] = kept[n], kept[0]
		siftDown(c, kept[:n], 0)
	}
	sc.dest, sc.pos, sc.done = kept, 0, len(kept) < batchSize
	if len(kept) > 0 {
		sc.last = kept[len(kept)-1]
	}
}

// later reports whether node a is picked after node b: a lower score, or
// an equal one and a higher id.
func later(score []float64, a, b int32) bool {
	return score[a] < score[b] || score[a] == score[b] && a > b
}

// siftUp restores heap h, rooted at the latest pick, after h[i] changed.
func siftUp(score []float64, h []int32, i int) {
	v := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !later(score, v, h[p]) {
			break
		}
		h[i], i = h[p], p
	}
	h[i] = v
}

// siftDown restores heap h, rooted at the latest pick, after h[i] changed.
func siftDown(score []float64, h []int32, i int) {
	v := h[i]
	for {
		l := 2*i + 1
		if l >= len(h) {
			break
		}
		if r := l + 1; r < len(h) && later(score, h[r], h[l]) {
			l = r
		}
		if !later(score, h[l], v) {
			break
		}
		h[i], i = h[l], l
	}
	h[i] = v
}

// uphill returns the bounds of v's uphill list for source o in the arena,
// building it on first use.
func (sc *scratch) uphill(o *source, v int32) (start, end int32) {
	if a := o.at[v]; int(a) < len(o.hdr) && o.hdr[a].node == v {
		return o.hdr[a].start, o.hdr[a].end
	}
	start = int32(len(sc.up))
	nbrs, _ := sc.g.Neighbors(int(v))
	rv := o.ri[v]
	for _, w := range nbrs {
		if o.ri[w] > rv {
			sc.up = append(sc.up, int32(w))
		}
	}
	end = int32(len(sc.up))
	o.at[v] = uint32(len(o.hdr))
	o.hdr = append(o.hdr, upList{v, start, end})
	return start, end
}

// slot gives v the next slot, with every state unreached.
func (sc *scratch) slot(v int32, stamp uint64, width int) int32 {
	k := int32(len(sc.nodes))
	sc.nodes = append(sc.nodes, v)
	sc.mark[v] = stamp | uint64(k)
	for j := 0; j < width; j++ {
		sc.best = append(sc.best, math.Inf(-1))
	}
	sc.reach = append(sc.reach, span{int32(width), -1})
	return k
}

// pull offers the node of frame f every state of its uphill neighbour in
// slot u: state s pulls state s-cost of u, and replaces the current value
// only when strictly larger. Only the span of states u can have reached is
// scanned; the spans are supersets, and the -Inf states inside them give
// -Inf or NaN, never an update.
func (sc *scratch) pull(f *frame, u int32, width int) {
	cost := int(f.cost)
	sLo, sHi := int(sc.reach[u].lo)+cost, min(int(sc.reach[u].hi)+cost, width-1)
	if sLo > sHi {
		return
	}
	got := &sc.reach[f.k]
	got.lo, got.hi = min(got.lo, int32(sLo)), max(got.hi, int32(sHi))
	from, to, cv := int(u)*width-cost, int(f.k)*width, f.cv
	prev := sc.best[from+sLo : from+sHi+1]
	cur := sc.best[to+sLo : to+sHi+1][:len(prev)]
	for j, p := range prev {
		if c := p + cv; c > cur[j] {
			cur[j] = c
		}
	}
}

// keyPath discovers the best downhill path from source i (query node src)
// to destination pd (Table 3): among all "specified prefix paths" that
// start at src, strictly descend r(i, ·), and end at pd, it returns the one
// maximizing (Σ_{v on path} r(Q, v)) / s where s is the number of nodes not
// already in H, subject to s ≤ maxNew. The returned path runs
// source→…→pd. ok is false when pd is unreachable by a downhill path
// within the budget.
//
// Only pd's ancestors in the downhill DAG can lie on such a path, and of
// those only nodes ranked at or below src in source i's order (score
// descending, ties by ascending id) are reachable from it. So the DP walks
// depth-first up the uphill lists from pd, entering a neighbour only if it
// ranks at or below src, and never reads another node. A node finishes
// after all its uphill neighbours — the walk's postorder is topological
// (Table 3's "fill the extracted matrix C in topological order") — and it
// pulls each neighbour's final states as the walk returns from it, in
// adjacency order, so values and tie-breaks match a DP over the whole
// candidate set in score order.
func (sc *scratch) keyPath(i, src, pd int, inH []bool, maxNew int, noSharing bool) ([]int, bool) {
	o := &sc.srcs[i]
	ri := o.ri
	srcScore := ri[src]
	if !(srcScore > ri[pd]) {
		return nil, false // source not uphill of destination: no downhill path
	}
	costOf := func(v int32) int32 { // new nodes a path pays for v
		if inH[v] && !noSharing {
			return 0
		}
		return 1
	}
	srcCost := costOf(int32(src)) // sources are normally in H already; be safe
	if int(srcCost) > maxNew {
		return nil, false
	}
	sc.stamp++
	if sc.stamp == 0 { // wrapped: marks of 2^32 key paths ago would match
		clear(sc.mark)
		sc.stamp = 1
	}
	stamp, src32, width := uint64(sc.stamp)<<32, int32(src), maxNew+1
	mark := sc.mark
	sc.nodes, sc.best, sc.reach = sc.nodes[:0], sc.best[:0], sc.reach[:0]

	start, end := sc.uphill(o, int32(pd))
	sc.stack = append(sc.stack[:0], frame{sc.slot(int32(pd), stamp, width), start, end, costOf(int32(pd)), sc.combined[pd]})
	for len(sc.stack) > 0 {
		f := &sc.stack[len(sc.stack)-1]
		up := sc.up
		for f.cur < f.end {
			w := up[f.cur]
			if m := mark[w]; m&^slotMask == stamp {
				sc.pull(f, int32(m&slotMask), width)
				f.cur++
				continue
			}
			if x := ri[w]; x > srcScore || x == srcScore && w < src32 {
				f.cur++ // ranked above the source: unreachable from it
				continue
			}
			k := sc.slot(w, stamp, width)
			if w == src32 { // no uphill neighbour ranks at or below src
				sc.best[int(k)*width+int(srcCost)] = sc.combined[src]
				sc.reach[k] = span{srcCost, srcCost}
				continue // pulled on the next pass, as a finished neighbour
			}
			start, end := sc.uphill(o, w)
			sc.stack = append(sc.stack, frame{k, start, end, costOf(w), sc.combined[w]})
			break // f may have moved; the walk resumes it after w finishes
		}
		if t := len(sc.stack) - 1; sc.stack[t].cur == sc.stack[t].end {
			sc.stack = sc.stack[:t] // finished: every uphill neighbour pulled
		}
	}
	if mark[src]&^slotMask != stamp {
		return nil, false
	}

	// Output the path maximizing C_s(i, pd)/s with s ≥ 1 (Table 3 step 3);
	// pd holds slot 0.
	best := sc.best
	bestS, bestRatio := -1, math.Inf(-1)
	for s := 1; s < width; s++ {
		if math.IsInf(best[s], -1) {
			continue
		}
		if ratio := best[s] / float64(s); ratio > bestRatio {
			bestRatio, bestS = ratio, s
		}
	}
	if bestS < 0 {
		return nil, false
	}
	// Reconstruct pd → src, then reverse. The DP replaced a state only by
	// a strictly larger value, so a state's predecessor is the first
	// walked uphill neighbour, in adjacency order, whose pull equals its
	// value.
	rev := []int{pd}
	for k, s := 0, bestS; sc.nodes[k] != src32; {
		v := sc.nodes[k]
		want, cv, from := best[k*width+s], sc.combined[v], -1
		s -= int(costOf(v))
		start, end := sc.uphill(o, v)
		for _, w := range sc.up[start:end] {
			if m := mark[w]; m&^slotMask == stamp && best[int(m&slotMask)*width+s]+cv == want {
				from = int(m & slotMask)
				break
			}
		}
		if from < 0 {
			panic("extract: key path state has no predecessor")
		}
		k = from
		rev = append(rev, int(sc.nodes[k]))
	}
	slices.Reverse(rev)
	return rev, true
}
