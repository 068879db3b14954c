package rwr

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"ceps/internal/fault"
)

// This file is the serving layer of Step 1: a shared, byte-budgeted cache
// of per-source score vectors under SIEVE eviction, plus a bounded solve
// pool. The paper's §6 pre-compute discussion trades memory for the
// repeated per-query solve cost; the cache is the incremental version of
// that trade — only sources that queries actually ask about are
// materialized, and a byte budget bounds the "heavy burden when N is big"
// instead of an N×N inverse.
//
// Vectors are keyed by (space, source): the source node id plus a space
// fingerprint that encodes everything else the vector depends on — the RWR
// configuration and the identity of the (work) graph the solve ran on. A
// configuration change therefore can never serve stale vectors (the space
// changes), and Purge exists only to release the memory eagerly.

// Fingerprint returns a stable 64-bit hash of the walk parameters. Two
// configs with equal fingerprints produce identical score vectors on the
// same graph, so the fingerprint is the config's contribution to a cache
// key space.
func (c Config) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(math.Float64bits(c.C))
	put(uint64(c.Iterations))
	put(uint64(c.Norm))
	put(math.Float64bits(c.Alpha))
	put(math.Float64bits(c.Tol))
	return h.Sum64()
}

// Space derives a cache key space from a config fingerprint and the
// identity of the graph the solves run on (callers hash whatever
// establishes that identity — e.g. a partition-union signature; zero values
// conventionally mean "the full graph").
func Space(fingerprint uint64, graphID uint64, parts []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(fingerprint)
	put(graphID)
	put(uint64(len(parts)))
	for _, p := range parts {
		put(uint64(p))
	}
	return h.Sum64()
}

// Pool bounds how many random-walk solves run concurrently across every
// query and batch sharing it. Waiting for a slot honors the waiter's
// context, and slots are held only while a solve is actually sweeping —
// never while a goroutine waits on a cache flight — so the pool cannot
// deadlock against the cache.
type Pool struct {
	sem chan struct{}
}

// NewPool returns a pool admitting up to n concurrent solves; n ≤ 0 means
// 1 (fully sequential).
func NewPool(n int) *Pool {
	if n <= 0 {
		n = 1
	}
	return &Pool{sem: make(chan struct{}, n)}
}

// acquire blocks until a slot is free or ctx fires. A wait the context did
// not survive is classified as a pool_wait shed (ErrOverloaded wrapping the
// context identity), not an ordinary error: the pool refusing the work in
// time is load, not failure, and metrics count it as such.
func (p *Pool) acquire(ctx context.Context) error {
	if inj := fault.ActiveInjector(); inj != nil && inj.Fire(fault.InjectPoolStarve) {
		// Chaos: a wedged pool — block until the caller's context fires.
		<-ctx.Done()
		return fault.Overload("pool_wait", 0, fault.FromContext(ctx))
	}
	select {
	case p.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fault.Overload("pool_wait", 0, fault.FromContext(ctx))
	}
}

func (p *Pool) release() { <-p.sem }

// CacheStats is a point-in-time snapshot of a ScoreCache's counters.
type CacheStats struct {
	// Hits counts queries answered without a fresh solve — either from a
	// stored vector or by joining a solve already in flight for the same
	// (space, source).
	Hits uint64 `json:"hits"`
	// Misses counts queries that had to run a fresh solve.
	Misses uint64 `json:"misses"`
	// Evictions counts vectors dropped to fit the byte budget.
	Evictions uint64 `json:"evictions"`
	// Invalidations counts Purge calls (configuration changes).
	Invalidations uint64 `json:"invalidations"`
	// StaleDrops counts solved vectors discarded instead of stored because
	// a Purge happened after their flight started: storing them would have
	// filled the byte budget with dead space no future query can read.
	StaleDrops uint64 `json:"stale_drops"`
	// Entries is the number of vectors currently stored.
	Entries int `json:"entries"`
	// BytesUsed and BytesBudget describe the current footprint. BytesUsed
	// charges each stored vector 8 bytes per score plus a fixed overhead,
	// and each uphill bitmask attached beside one (ServeOptions.Uphill)
	// 8 bytes per word; it never exceeds BytesBudget.
	BytesUsed   int64 `json:"bytes_used"`
	BytesBudget int64 `json:"bytes_budget"`
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// cacheKey identifies one cached vector.
type cacheKey struct {
	space  uint64
	source int
}

// entry is one resident vector. vec is immutable once stored and readers
// share it read-only, so eviction can drop the cache's reference at any
// time without disturbing them. Entries form a list in insertion order
// (prev points toward the older end) and carry SIEVE's visited bit. up is
// vec's uphill bitmask once a hit has built it and it fit the budget (its
// bytes are in bytes); upClaimed marks that a hit has taken the one build
// the entry gets.
type entry struct {
	key        cacheKey
	vec        []float64
	diag       Diagnostics
	up         []uint64
	bytes      int64
	visited    bool
	upClaimed  bool
	prev, next *entry
}

// flight coordinates concurrent requests for the same missing vector: the
// first requester becomes the leader and solves; followers wait on done
// and share the leader's result, so an overlapping batch pays each
// source's solve exactly once even when its queries run concurrently.
type flight struct {
	done chan struct{}
	vec  []float64
	diag Diagnostics
	err  error
	// gen is the cache generation the flight started under; finish refuses
	// to store the result if a Purge has bumped the generation since, so a
	// reconfiguration racing an in-flight leader cannot leave dead-space
	// vectors occupying the byte budget. Followers still receive the
	// leader's result either way — it is correct for *them*, they asked
	// under the old space.
	gen uint64
}

// ScoreCache is a goroutine-safe cache of RWR score vectors with a byte
// budget. It is shared by the full-graph and Fast CePS query paths of an
// Engine; see the package comment of this file for the keying scheme.
//
// Eviction is SIEVE (Zhang et al., "SIEVE is Simpler than LRU", NSDI '24):
// entries keep insertion order and a visited bit. A hit only sets the
// bit — no list move. To make room, a hand walks from the oldest entry
// toward the newest, clearing set bits, and evicts the first unvisited
// entry; it resumes there on the next eviction. A vector hit since the
// hand last passed survives, where LRU would drop it for having been
// touched before a newer, never-reused one.
type ScoreCache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	gen    uint64 // bumped by Purge; guards finish against stale stores
	// newest and oldest end the insertion-order list; hand is the next
	// eviction candidate (nil: start from oldest).
	newest, oldest, hand *entry
	items                map[cacheKey]*entry
	inflight             map[cacheKey]*flight

	hits, misses, evictions, invalidations, staleDrops uint64
}

// entryOverhead approximates the per-entry bookkeeping cost (key, list
// element, entry header, map slot) added to the 8 bytes per score.
const entryOverhead = 128

// NewScoreCache returns a cache that keeps at most budgetBytes of score
// vectors (approximately: each vector costs 8·len + a small overhead).
// budgetBytes ≤ 0 disables storage entirely — lookups always miss — which
// keeps the serving code path uniform for cache-off configurations.
func NewScoreCache(budgetBytes int64) *ScoreCache {
	return &ScoreCache{
		budget:   budgetBytes,
		items:    make(map[cacheKey]*entry),
		inflight: make(map[cacheKey]*flight),
	}
}

// Stats returns a snapshot of the cache counters.
func (c *ScoreCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		StaleDrops:    c.staleDrops,
		Entries:       len(c.items),
		BytesUsed:     c.used,
		BytesBudget:   c.budget,
	}
}

// Purge drops every stored vector, resets the eviction hand, bumps the
// cache generation, and counts one invalidation. Engines call it on
// reconfiguration: stale vectors can never be *read* (their key space
// dies with the old config), so purging is about releasing memory
// promptly rather than correctness. The generation bump extends that
// guarantee to in-flight leaders: a solve that started before the purge
// completes normally for its waiters but is not stored, so it cannot
// re-occupy the byte budget as unreadable dead space (see finish).
func (c *ScoreCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.newest, c.oldest, c.hand = nil, nil, nil
	c.items = make(map[cacheKey]*entry)
	c.used = 0
	c.gen++
	c.invalidations++
}

// getOrJoin is the miss/hit/flight triage for one source. On a hit it
// returns the stored entry, whose vector the caller must not write. On a
// miss it either registers the caller as the leader of a new flight
// (leader == true; the caller must finish the flight) or returns the
// existing flight to wait on.
func (c *ScoreCache) getOrJoin(space uint64, source int) (ent *entry, fl *flight, leader bool) {
	key := cacheKey{space: space, source: source}
	c.mu.Lock()
	if ent, found := c.items[key]; found {
		ent.visited = true
		c.hits++
		c.mu.Unlock()
		return ent, nil, false
	}
	if fl, found := c.inflight[key]; found {
		c.hits++ // the caller will share the in-flight solve
		c.mu.Unlock()
		return nil, fl, false
	}
	fl = &flight{done: make(chan struct{}), gen: c.gen}
	c.inflight[key] = fl
	c.misses++
	c.mu.Unlock()
	return nil, fl, true
}

// uphill returns the uphill bitmask of ent, an entry that just served a
// hit: the one attached to it, or, for the first hit that asks, one that
// build makes now from ent's vector, outside the lock. An entry gets at
// most that one build, so a concurrent first hit, and every hit after a
// build that was not attached, gets nil. The build is attached, and
// charged to the budget, only while ent is still stored and only if it
// fits without evicting a vector; eviction and Purge then drop it with
// the vector.
func (c *ScoreCache) uphill(ent *entry, build func([]float64) []uint64) []uint64 {
	c.mu.Lock()
	up, claimed := ent.up, ent.upClaimed
	ent.upClaimed = true
	c.mu.Unlock()
	if claimed {
		return up
	}
	up = build(ent.vec)
	bytes := int64(len(up)) * 8
	c.mu.Lock()
	if c.items[ent.key] == ent && c.used+bytes <= c.budget {
		ent.up, ent.bytes = up, ent.bytes+bytes
		c.used += bytes
	}
	c.mu.Unlock()
	return up
}

// finish completes a flight: on success the vector is stored (subject to
// the byte budget) and handed to any followers; on error followers are
// woken to retry or propagate. The leader's vec itself is stored and
// shared: from here on nobody may write it. A store is skipped —
// and counted as a stale drop — when a Purge bumped the generation after
// the flight started: the purge's caller (Reconfigure, SetPartitioned)
// has already retired this flight's key space, so storing would only park
// unreadable vectors against the byte budget until evicted. A nil
// cache has no flights, so finishing on it is a no-op.
func (c *ScoreCache) finish(space uint64, source int, fl *flight, vec []float64, diag Diagnostics, err error) {
	if c == nil {
		return
	}
	key := cacheKey{space: space, source: source}
	if err == nil {
		fl.vec = vec
		fl.diag = diag
	} else {
		fl.err = err
	}
	c.mu.Lock()
	if err == nil {
		if fl.gen == c.gen {
			c.storeLocked(key, fl.vec, diag)
		} else {
			c.staleDrops++
		}
	}
	delete(c.inflight, key)
	c.mu.Unlock()
	close(fl.done)
}

// storeLocked inserts (or replaces) an entry as the newest, first
// evicting by SIEVE until it fits the budget; the new entry itself is
// never the victim. A vector larger than the whole budget is not stored.
// Callers hold c.mu.
func (c *ScoreCache) storeLocked(key cacheKey, vec []float64, diag Diagnostics) {
	ent := &entry{key: key, vec: vec, diag: diag, bytes: int64(len(vec))*8 + entryOverhead}
	if ent.bytes > c.budget {
		return
	}
	if old, found := c.items[key]; found {
		c.unlinkLocked(old)
	}
	for c.used+ent.bytes > c.budget && c.oldest != nil {
		victim := c.hand
		if victim == nil {
			victim = c.oldest
		}
		for victim.visited {
			victim.visited = false
			if victim = victim.next; victim == nil {
				victim = c.oldest
			}
		}
		c.hand = victim // unlinking moves it on to the next newer entry
		c.unlinkLocked(victim)
		c.evictions++
	}
	ent.prev = c.newest
	if c.newest != nil {
		c.newest.next = ent
	} else {
		c.oldest = ent
	}
	c.newest = ent
	c.items[key] = ent
	c.used += ent.bytes
}

// unlinkLocked removes ent from the list and the index, moving the hand
// to the next newer entry if it pointed at ent. Callers hold c.mu.
func (c *ScoreCache) unlinkLocked(ent *entry) {
	if c.hand == ent {
		c.hand = ent.next
	}
	if ent.prev != nil {
		ent.prev.next = ent.next
	} else {
		c.oldest = ent.next
	}
	if ent.next != nil {
		ent.next.prev = ent.prev
	} else {
		c.newest = ent.prev
	}
	ent.prev, ent.next = nil, nil
	delete(c.items, ent.key)
	c.used -= ent.bytes
}

// contextual reports whether err is a cancellation/deadline failure — the
// one class of leader failure a follower with a live context should retry
// rather than inherit.
func contextual(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, fault.ErrCanceled) || errors.Is(err, fault.ErrDeadlineExceeded)
}

// wait blocks until the flight finishes or ctx fires and returns the
// leader's vector, shared read-only. retry reports a leader that failed on
// its own context while ctx is still alive: the caller should resolve the
// source again (and will likely lead the next flight).
func (fl *flight) wait(ctx context.Context) (vec []float64, diag Diagnostics, retry bool, err error) {
	select {
	case <-fl.done:
	case <-ctx.Done():
		return nil, Diagnostics{}, false, fault.FromContext(ctx)
	}
	switch {
	case fl.err == nil:
		return fl.vec, fl.diag, false, nil
	case !contextual(fl.err):
		return nil, Diagnostics{}, false, fl.err
	}
	if err := fault.FromContext(ctx); err != nil {
		return nil, Diagnostics{}, false, err
	}
	return nil, Diagnostics{}, true, nil
}

// ServeStats reports how one serving-layer call resolved its sources:
// Hits were served from a stored vector or a joined in-flight solve,
// Misses were led by this caller (without a cache, every source is a
// miss). Hits+Misses equals the query-set size on success. Unlike
// CacheStats these are per-call, which is what per-query stage accounting
// (Result.Stages) reports.
type ServeStats struct {
	Hits, Misses int
	// ArtifactHits counts the Misses (they are a subset — the cache did
	// miss) that the precompute tier answered with a row read instead of
	// an iterative solve.
	ArtifactHits int
	// CoalescedWidth is the widest shared panel that served one of this
	// call's misses (0 when no miss went through a coalescer; 1 means a
	// panel solved for this caller alone).
	CoalescedWidth int
	// CoalesceWait is the longest forming delay one of this call's misses
	// spent queued in a panel before its solve launched.
	CoalesceWait time.Duration
}

// Add folds the stats of another serving call into st: counts add up,
// the coalescer width and wait keep their maxima.
func (st *ServeStats) Add(o ServeStats) {
	st.Hits += o.Hits
	st.Misses += o.Misses
	st.ArtifactHits += o.ArtifactHits
	st.CoalescedWidth = max(st.CoalescedWidth, o.CoalescedWidth)
	st.CoalesceWait = max(st.CoalesceWait, o.CoalesceWait)
}

// ServeOptions are the per-call attachments of a serving-layer solve; the
// zero value solves every miss as one blocked panel. Because the blocked
// kernel is bit-identical to per-query solves and artifact rows are
// trusted solutions, the options never influence cache keys or answers —
// only scheduling.
type ServeOptions struct {
	// Coalesce, when non-nil, routes this call's misses through a shared
	// cross-request coalescer: they join a forming panel, possibly
	// alongside other callers' misses for the same key space, instead of
	// solving directly. Requires a cache (the fan-out rides the
	// single-flight entries); ignored without one.
	Coalesce *Coalescer
	// Artifacts, when non-nil, is consulted for every miss this call leads,
	// between the cache and the solver: a covered source becomes one row
	// read (stored into the cache like a solved vector would be) instead of
	// an iterative solve. Artifact rows are m-sweep iterates,
	// bit-identical to the solves they replace.
	Artifacts ArtifactReader
	// Uphill, when non-nil, builds the uphill bitmask EXTRACT reads beside
	// a score row (extract.UphillMask over the solver's graph). A row this
	// call serves from a stored entry then comes with the entry's bitmask,
	// built by the entry's first such hit and kept beside the vector for
	// later hits when it fits the byte budget without evicting a vector.
	// Leaders, followers and artifact reads get none: a vector earns its
	// bitmask on its second use. Requires a cache; ignored without one.
	Uphill func(vec []float64) []uint64
}

// pendingFlight is one source a serving call must resolve beyond a cache
// hit: its position in the query set, the source id, and the flight this
// caller leads or follows (nil without a cache).
type pendingFlight struct {
	idx int
	q   int
	fl  *flight
}

// ScoresSetServingCtx computes the score matrix for a query set through
// the serving layer, in four steps:
//
//  1. Triage each source once: a cached vector is a hit, the first
//     requester of a missing source leads its flight, and concurrent
//     requesters follow it. Without a cache every source leads. With
//     opt.Uphill a hit also takes its entry's uphill bitmask: up[i] is
//     row i's, nil for a row without one, and up is nil when no row hit.
//  2. Each leader the artifact tier covers is answered with a row read.
//  3. The remaining leaders solve as one blocked panel: through the
//     coalescer when one is attached, otherwise under one pool slot.
//  4. Followers wait for their flights. A follower whose leader failed on
//     its own context, while ours is alive, resolves its source again
//     through this function.
//
// pool may be nil (unbounded). The result is bit-identical to
// ScoresSetCtx: the blocked kernel is column-wise identical to ScoresCtx,
// and cached vectors are exactly what a fresh solve returns.
//
// The rows are read-only. With a cache, hits, followers and leaders alike
// receive the vectors the cache stores and shares with every other
// caller, so writing one would corrupt later answers; callers that hand
// rows to code they do not control copy them first.
func (s *Solver) ScoresSetServingCtx(ctx context.Context, queries []int, cache *ScoreCache, space uint64, pool *Pool, opt ServeOptions) (R [][]float64, diags []Diagnostics, up [][]uint64, stats ServeStats, err error) {
	if len(queries) == 0 {
		return nil, nil, nil, stats, fmt.Errorf("%w: empty query set", fault.ErrBadQuery)
	}
	for _, q := range queries {
		if q < 0 || q >= s.n {
			return nil, nil, nil, stats, fmt.Errorf("%w: query node %d out of range [0,%d)", fault.ErrBadQuery, q, s.n)
		}
	}
	if cache != nil {
		if inj := fault.ActiveInjector(); inj != nil {
			if err := inj.Err(fault.InjectCacheFail); err != nil {
				return nil, nil, nil, stats, err
			}
		}
	}
	R = make([][]float64, len(queries))
	diags = make([]Diagnostics, len(queries))

	var leaders, followers []pendingFlight
	for i, q := range queries {
		if cache == nil {
			leaders = append(leaders, pendingFlight{idx: i, q: q})
			continue
		}
		ent, fl, leader := cache.getOrJoin(space, q)
		switch {
		case ent != nil:
			R[i], diags[i] = ent.vec, ent.diag
			stats.Hits++
			if opt.Uphill != nil {
				if up == nil {
					up = make([][]uint64, len(queries))
				}
				up[i] = cache.uphill(ent, opt.Uphill)
			}
		case leader:
			leaders = append(leaders, pendingFlight{i, q, fl})
		default:
			followers = append(followers, pendingFlight{i, q, fl})
		}
	}
	stats.Misses = len(leaders)

	// A covered leader is finished into its flight, so followers inherit
	// the row and the cache stores it exactly as it would a solved vector.
	unsolved := leaders[:0]
	for _, p := range leaders {
		vec, ok := s.readArtifact(opt.Artifacts, space, p.q)
		if !ok {
			unsolved = append(unsolved, p)
			continue
		}
		cache.finish(space, p.q, p.fl, vec, artifactDiag(), nil)
		R[p.idx], diags[p.idx] = vec, artifactDiag()
		stats.ArtifactHits++
	}

	if len(unsolved) > 0 {
		if opt.Coalesce != nil && cache != nil {
			err = s.solveCoalesced(ctx, unsolved, cache, space, pool, opt, R, diags, &stats)
		} else {
			err = s.solvePanel(ctx, unsolved, cache, space, pool, R, diags)
		}
		if err != nil {
			return nil, nil, nil, stats, err
		}
	}

	// Our own flights are finished above, so a follower of a source this
	// very call leads (a duplicate in the query set) never deadlocks.
	for _, p := range followers {
		vec, d, retry, err := p.fl.wait(ctx)
		if retry {
			var again ServeStats
			vec, d, again, err = s.resolveOne(ctx, p.q, cache, space, pool, opt)
			stats.Add(again)
		} else if err == nil {
			stats.Hits++
		}
		if err != nil {
			return nil, nil, nil, stats, err
		}
		R[p.idx], diags[p.idx] = vec, d
	}
	return R, diags, up, stats, nil
}

// resolveOne re-enters the serving path for a single source whose leader
// failed on its own context. It serves the row as a follower would, so
// without an uphill bitmask.
func (s *Solver) resolveOne(ctx context.Context, q int, cache *ScoreCache, space uint64, pool *Pool, opt ServeOptions) ([]float64, Diagnostics, ServeStats, error) {
	opt.Uphill = nil
	R, diags, _, stats, err := s.ScoresSetServingCtx(ctx, []int{q}, cache, space, pool, opt)
	if err != nil {
		return nil, Diagnostics{}, stats, err
	}
	return R[0], diags[0], stats, nil
}

// solvePanel solves leaders as one blocked panel under a single pool slot
// — the fused sweep streams the transition matrix once for every cold
// source instead of once per source — and finishes their flights. Every
// flight is finished even when the solve fails, or concurrent followers of
// these sources would wait forever.
func (s *Solver) solvePanel(ctx context.Context, leaders []pendingFlight, cache *ScoreCache, space uint64, pool *Pool, R [][]float64, diags []Diagnostics) error {
	queries := make([]int, len(leaders))
	for k, p := range leaders {
		queries[k] = p.q
	}
	mR, mD, err := s.blockedPooled(ctx, queries, pool)
	for k, p := range leaders {
		if err != nil {
			cache.finish(space, p.q, p.fl, nil, Diagnostics{}, err)
			continue
		}
		cache.finish(space, p.q, p.fl, mR[k], mD[k], nil)
		R[p.idx], diags[p.idx] = mR[k], mD[k]
	}
	return err
}

// solveCoalesced hands leaders to the shared coalescer, where they may
// ride one blocked panel with misses from concurrent callers, and waits
// for their columns. The panel goroutine finishes every flight.
func (s *Solver) solveCoalesced(ctx context.Context, leaders []pendingFlight, cache *ScoreCache, space uint64, pool *Pool, opt ServeOptions, R [][]float64, diags []Diagnostics, stats *ServeStats) error {
	entries := make([]panelEntry, len(leaders))
	for k, p := range leaders {
		entries[k] = panelEntry{q: p.q, fl: p.fl}
	}
	panels := opt.Coalesce.enqueue(s, cache, space, pool, entries)
	for k, p := range leaders {
		vec, d, retry, err := opt.Coalesce.wait(ctx, panels[k], p.fl)
		if retry {
			vec, d, _, err = s.resolveOne(ctx, p.q, cache, space, pool, opt)
		} else if err == nil {
			panels[k].noteStats(stats)
		}
		if err != nil {
			// Release the remaining liveness references: each panel still
			// solves for its other waiters or aborts, and finishes its
			// flights either way, so nothing is orphaned.
			for _, rest := range panels[k+1:] {
				rest.leave()
			}
			return err
		}
		R[p.idx], diags[p.idx] = vec, d
	}
	return nil
}

// blockedPooled runs one blocked multi-source solve under a single pool
// slot: the whole panel is one serial kernel invocation, so it occupies
// one slot.
func (s *Solver) blockedPooled(ctx context.Context, queries []int, pool *Pool) ([][]float64, []Diagnostics, error) {
	if pool != nil {
		if err := pool.acquire(ctx); err != nil {
			return nil, nil, err
		}
		defer pool.release()
	}
	return s.ScoresSetBlockedCtx(ctx, queries, 1)
}
