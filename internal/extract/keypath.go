package extract

import (
	"math"
	"math/bits"
	"slices"

	"ceps/internal/graph"
)

// batchSize is how many destinations one selection pass over the combined
// scores gathers.
const batchSize = 64

// scratch is the per-query state of one EXTRACT run: the Eq. 11 destination
// batch, and every source's uphill lists and Table 3 states, which all key
// paths of the query share. Nothing in it is O(n) per source except the
// sparse entry index, which is never cleared. A scratch serves one query
// at a time; reset readies it for the next.
//
// A node's states for source i depend only on whether it and its uphill
// ancestors ranked at or below the source are in H, and every such
// ancestor ranks strictly above it. H only grows during a query, so a
// stored row stays exact until a node ranked at or above it joins H; key
// paths therefore keep every row and recompute only the stale ones. That
// holds while, between resets, H grows only through join, each source's
// query node is fixed and never joins, and no key path is wider than the
// first or has another cost rule; ExtractCtx keeps all four, and a caller
// that does not must reset the scratch.
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
	// best holds the query's stored states, all sources: row r is
	// best[r : r+stride], C_s at best[r+s]. Row 0 is the running key
	// path's source, rewritten by each call.
	best []float64
	// stride is the rows' length: the query's first key path's width, the
	// widest, since the remaining budget only shrinks. width is the running
	// key path's; every stored state below it is computed.
	stride, width int
	noSharing     bool  // the query's cost rule
	gen           int32 // the generation: join batches so far
	joined        bool  // a node joined H during gen
	stack         []frame
}

// source is source q_i's view of the graph for one query: its scores, their
// uphill bitmask when the caller has one (nil: enter scans ri), and an
// entry for every node a key path from it has walked. at and hdr form a
// sparse set, so v has an entry iff at[v] < len(hdr) and hdr[at[v]].node ==
// v, and at is never cleared. joinMax[g] is the highest r(i, ·) among
// walked nodes that joined H during generation g or later, -Inf when none
// did.
type source struct {
	ri      []float64
	mask    []uint64
	at      []uint32
	hdr     []entry
	joinMax []float64
}

// entry is one walked node of a source: its r(i, ·), its uphill list in
// the scratch's up arena — its neighbours with a strictly higher r(i, ·),
// in adjacency order, exactly the "specified downhill" edges into it — and
// its states: row in the best arena, computed at generation gen, with every
// finite state inside [lo, hi]. The row is current iff r > joinMax[gen].
type entry struct {
	r           float64
	node, gen   int32
	row, lo, hi int32
	start, end  int32
}

// frame is a node on the walk's stack: its entry and row, the unread part
// of its uphill list (up[cur:end]), what a path pays and gains at it, and
// the span of its states reached so far.
type frame struct {
	a, row, cur, end, cost, lo, hi int32
	cv                             float64
}

// reset readies sc for a query on g with individual scores R, their uphill
// bitmasks up (Input.Uphill) and combined scores combined, and gathers the
// first destination batch: nodes already in H (the queries) and nodes with
// no positive combined score never enter it. Every stored state and uphill
// list is dropped.
func (sc *scratch) reset(g *graph.Graph, R [][]float64, up [][]uint64, combined []float64, inH []bool) {
	sc.g, sc.combined, sc.last = g, combined, -1
	if cap(sc.srcs) < len(R) {
		sc.srcs = append(sc.srcs[:cap(sc.srcs)], make([]source, len(R)-cap(sc.srcs))...)
	}
	sc.srcs = sc.srcs[:len(R)]
	for i := range sc.srcs {
		o := &sc.srcs[i]
		o.ri, o.mask, o.hdr = R[i], nil, o.hdr[:0]
		if i < len(up) && len(up[i]) == maskWords(g) {
			o.mask = up[i]
		}
		o.joinMax = append(o.joinMax[:0], math.Inf(-1))
		if cap(o.at) < len(o.ri) {
			o.at = make([]uint32, len(o.ri))
		}
		o.at = o.at[:len(o.ri)]
	}
	sc.up, sc.best = sc.up[:0], sc.best[:0]
	sc.stride, sc.width, sc.noSharing, sc.gen, sc.joined = 0, 0, false, 0, false
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
		sc.srcs[i].ri, sc.srcs[i].mask = nil, nil
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

// join records that node v joined H: each source that has walked v marks
// every stored row ranked at or below v as stale (a source that has not
// walked v stores no row that depends on it), and the next key path starts
// a new generation. Without sharing costs ignore H, so nothing goes stale.
func (sc *scratch) join(v int) {
	if sc.noSharing {
		return
	}
	sc.joined = true
	for i := range sc.srcs {
		o := &sc.srcs[i]
		a := o.at[v]
		if int(a) >= len(o.hdr) || o.hdr[a].node != int32(v) {
			continue
		}
		// joinMax is non-increasing in g, so the raised suffix ends at the
		// first generation already at or above r(i, v).
		for g, x := len(o.joinMax)-1, o.hdr[a].r; g >= 0 && o.joinMax[g] < x; g-- {
			o.joinMax[g] = x
		}
	}
}

// prepare readies the stored states for a key path of width width under
// the cost rule noSharing: the query's first key path sets both, and a key
// path after a join opens a new generation.
func (sc *scratch) prepare(width int, noSharing bool) {
	if sc.stride == 0 {
		sc.stride, sc.noSharing = width, noSharing
		sc.best = append(sc.best[:0], make([]float64, width)...) // the source row
	} else if width > sc.stride || noSharing != sc.noSharing {
		panic("extract: key path wider than the query's first, or under another cost rule")
	}
	sc.width = width
	if sc.joined {
		sc.joined = false
		sc.gen++
		for i := range sc.srcs {
			sc.srcs[i].joinMax = append(sc.srcs[i].joinMax, math.Inf(-1))
		}
	}
}

// enter gives v an entry for source o: its uphill list and a row. The list
// comes from the set bits of v's slots in o's bitmask when o has one, and
// from reading r(i, ·) at every neighbour otherwise; both give the same
// neighbours in adjacency order. The caller opens the row with renew.
func (sc *scratch) enter(o *source, v int32) int32 {
	start := int32(len(sc.up))
	nbrs, _ := sc.g.Neighbors(int(v))
	rv := o.ri[v]
	if o.mask == nil {
		for _, w := range nbrs {
			if uphill(o.ri[w], rv) {
				sc.up = append(sc.up, int32(w))
			}
		}
	} else {
		lo := sc.g.Slot(int(v))
		for s, hi := lo, lo+len(nbrs); s < hi; {
			n := min(64-s&63, hi-s) // slots s to s+n-1 share a word
			word := o.mask[s>>6] >> (s & 63) & (uint64(1)<<n - 1)
			for ; word != 0; word &= word - 1 {
				sc.up = append(sc.up, int32(nbrs[s-lo+bits.TrailingZeros64(word)]))
			}
			s += n
		}
	}
	row := int32(len(sc.best))
	sc.best = append(sc.best, make([]float64, sc.stride)...)
	a := int32(len(o.hdr))
	o.at[v] = uint32(a)
	o.hdr = append(o.hdr, entry{r: rv, node: v, row: row, start: start, end: int32(len(sc.up))})
	return a
}

// renew opens entry a of source o for recomputation in this generation,
// with every state unreached, and returns its frame: the walk pulls each
// uphill neighbour into it before it is final.
func (sc *scratch) renew(o *source, a int32, inH []bool) frame {
	e := &o.hdr[a]
	e.gen = sc.gen
	row := sc.best[e.row : int(e.row)+sc.width]
	for s := range row {
		row[s] = math.Inf(-1)
	}
	cost := int32(1)
	if inH[e.node] && !sc.noSharing {
		cost = 0
	}
	return frame{a: a, row: e.row, cur: e.start, end: e.end, cost: cost,
		lo: int32(sc.width), hi: -1, cv: sc.combined[e.node]}
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
// candidate set in score order. A neighbour whose stored row is current
// is pulled without walking above it: its ancestors' rows are current too,
// since they rank above it.
func (sc *scratch) keyPath(i, src, pd int, inH []bool, maxNew int, noSharing bool) ([]int, bool) {
	o := &sc.srcs[i]
	ri := o.ri
	srcScore := ri[src]
	if !(srcScore > ri[pd]) {
		return nil, false // source not uphill of destination: no downhill path
	}
	srcCost := 0 // sources are normally in H already; be safe
	if !inH[src] || noSharing {
		srcCost = 1
	}
	if srcCost > maxNew {
		return nil, false
	}
	src32, width := int32(src), maxNew+1
	sc.prepare(width, noSharing)
	// Row 0 is the source's: its one path, src alone, pays srcCost.
	srcRow := sc.best[:width]
	for s := range srcRow {
		srcRow[s] = math.Inf(-1)
	}
	srcRow[srcCost] = sc.combined[src]
	srcEntry := entry{node: src32, lo: int32(srcCost), hi: int32(srcCost)}

	// Walk from pd unless its stored row is current.
	sc.stack = sc.stack[:0]
	a := o.at[pd]
	if int(a) >= len(o.hdr) || o.hdr[a].node != int32(pd) {
		a = uint32(sc.enter(o, int32(pd)))
		sc.stack = append(sc.stack, sc.renew(o, int32(a), inH))
	} else if e := &o.hdr[a]; !(e.r > o.joinMax[e.gen]) {
		sc.stack = append(sc.stack, sc.renew(o, int32(a), inH))
	}
	for len(sc.stack) > 0 {
		f := &sc.stack[len(sc.stack)-1]
		up, at, hdr, best := sc.up, o.at, o.hdr, sc.best
		for f.cur < f.end {
			w := up[f.cur]
			var u *entry
			if a := at[w]; int(a) < len(hdr) && hdr[a].node == w {
				if u = &hdr[a]; !(u.r > o.joinMax[u.gen]) {
					sc.stack = append(sc.stack, sc.renew(o, int32(a), inH))
					break // f may have moved; the walk resumes it after w finishes
				}
			} else if x := ri[w]; x > srcScore || x == srcScore && w < src32 {
				f.cur++ // ranked above the source: unreachable from it
				continue
			} else if w == src32 { // no uphill neighbour ranks at or below src
				u = &srcEntry
			} else {
				sc.stack = append(sc.stack, sc.renew(o, sc.enter(o, w), inH))
				break
			}
			f.cur++
			// Pull u's states: state s pulls state s-cost of u, and replaces
			// the current value only when strictly larger. Only the span of
			// states u can have reached is scanned; the spans are supersets,
			// and the -Inf states inside them give -Inf or NaN, never an
			// update.
			cost := int(f.cost)
			sLo, sHi := int(u.lo)+cost, min(int(u.hi)+cost, width-1)
			if sLo > sHi {
				continue
			}
			f.lo, f.hi = min(f.lo, int32(sLo)), max(f.hi, int32(sHi))
			from, to, cv := int(u.row)-cost, int(f.row), f.cv
			prev := best[from+sLo : from+sHi+1]
			cur := best[to+sLo : to+sHi+1][:len(prev)]
			for j, p := range prev {
				if c := p + cv; c > cur[j] {
					cur[j] = c
				}
			}
		}
		if t := len(sc.stack) - 1; sc.stack[t].cur == sc.stack[t].end {
			f := &sc.stack[t] // finished: every uphill neighbour pulled
			o.hdr[f.a].lo, o.hdr[f.a].hi = f.lo, f.hi
			sc.stack = sc.stack[:t]
		}
	}

	// Output the path maximizing C_s(i, pd)/s with s ≥ 1 (Table 3 step 3).
	// No finite state means src does not reach pd within the budget.
	e := o.hdr[a]
	pdRow := sc.best[e.row:][:width]
	bestS, bestRatio := -1, math.Inf(-1)
	for s := 1; s < width; s++ {
		if math.IsInf(pdRow[s], -1) {
			continue
		}
		if ratio := pdRow[s] / float64(s); ratio > bestRatio {
			bestRatio, bestS = ratio, s
		}
	}
	if bestS < 0 {
		return nil, false
	}
	// Reconstruct pd → src, then reverse. The DP replaced a state only by
	// a strictly larger value, so a state's predecessor is the first
	// walked uphill neighbour, in adjacency order, whose pull equals its
	// value. Every walked uphill neighbour of a current row is current.
	rev := []int{pd}
	for s := bestS; e.node != src32; {
		want, cv := sc.best[int(e.row)+s], sc.combined[e.node]
		if !inH[e.node] || noSharing {
			s--
		}
		var from *entry
		for _, w := range sc.up[e.start:e.end] {
			u := &srcEntry
			if w != src32 {
				a := o.at[w]
				if int(a) >= len(o.hdr) || o.hdr[a].node != w {
					continue
				}
				u = &o.hdr[a]
			}
			if sc.best[int(u.row)+s]+cv == want {
				from = u
				break
			}
		}
		if from == nil {
			panic("extract: key path state has no predecessor")
		}
		e = *from
		rev = append(rev, int(e.node))
	}
	slices.Reverse(rev)
	return rev, true
}
