package artifact

import (
	"sync"
	"sync/atomic"
)

// TierStats is a point-in-time snapshot of a Tier's counters, exported on
// /metrics as the ceps_artifact_* series.
type TierStats struct {
	// Loaded is the number of artifacts in the store; Bound is how many
	// runtime key spaces currently resolve to one.
	Loaded int `json:"loaded"`
	Bound  int `json:"bound"`
	// BytesMapped is the total mapped artifact size.
	BytesMapped int64 `json:"bytes_mapped"`
	// Hits counts vectors served from an artifact row; Misses counts
	// consultations that found no bound artifact or an uncovered source
	// (the query then fell through to the iterative solver).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Fallbacks counts artifacts rejected at bind time (fingerprint matched
	// but the shape disagreed with the live graph).
	Fallbacks uint64 `json:"fallbacks"`
	// Rebinds counts Rebind calls (engine construction, Reconfigure,
	// SetPartitioned) and Generation the current binding generation.
	Rebinds    uint64 `json:"rebinds"`
	Generation uint64 `json:"generation"`
}

// HitRate returns Hits / (Hits + Misses), or 0 before any consultation.
func (s TierStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Tier is the online face of an artifact store: it binds the engine's
// process-local cache key spaces (rwr.Space values) to loaded artifacts
// and serves row reads on the serving miss path. Bindings are re-derived —
// never patched — whenever the engine's config or partition state changes
// (generation-bump parity with ScoreCache.Purge): Rebind drops every
// binding, and the engine re-runs its bind pass against the new state, so
// a stale artifact can never serve a reconfigured engine.
//
// Tier implements rwr.ArtifactReader. All methods are safe for concurrent
// use; reads take only an RLock around one map lookup.
type Tier struct {
	store *Store
	logf  func(format string, args ...any)

	mu           sync.RWMutex
	bind         map[uint64]*Artifact
	gen          uint64
	bypassLogged bool

	hits, misses, fallbacks, rebinds atomic.Uint64
}

// NewTier wraps an open store. logf (nil for silent) receives the
// bind-failure and bypass log lines — one line per cause, not per query.
func NewTier(store *Store, logf func(format string, args ...any)) *Tier {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Tier{store: store, logf: logf, bind: make(map[uint64]*Artifact)}
}

// Rebind drops every space binding and bumps the binding generation. The
// engine calls it (then re-runs its bind pass) on Reconfigure and
// SetPartitioned, mirroring the ScoreCache purge those paths already do.
func (t *Tier) Rebind() {
	t.mu.Lock()
	t.bind = make(map[uint64]*Artifact)
	t.gen++
	t.bypassLogged = false
	t.mu.Unlock()
	t.rebinds.Add(1)
}

// Bind resolves key against the store and, on a full-equality match whose
// node count agrees with wantN, routes future reads for the runtime key
// space to that artifact. A shape disagreement is counted as a fallback
// and logged: the fingerprints matched, so something is off about the
// artifact directory, and silence would hide it.
func (t *Tier) Bind(space uint64, key Key, wantN int) bool {
	a, ok := t.store.Find(key)
	if !ok {
		return false
	}
	if a.N != wantN {
		t.fallbacks.Add(1)
		t.logf("artifact: %s matches key %s but solves %d nodes (live graph has %d); ignoring it", a.File, fpString(key.ID()), a.N, wantN)
		return false
	}
	t.mu.Lock()
	t.bind[space] = a
	t.mu.Unlock()
	return true
}

// Probes reports whether a bind pass probes any artifact the store holds:
// a full-graph one always, a part one only when the pass has partition
// state to bind it against. A store whose every artifact went unprobed is
// no mismatch, so NoteBypass has nothing to report for it.
func (t *Tier) Probes(partitioned bool) bool {
	for _, a := range t.store.Artifacts() {
		if partitioned || len(a.Key.Parts) == 0 {
			return true
		}
	}
	return false
}

// NoteBypass records that the engine's bind pass matched nothing — the
// store was built for a different graph, config, or partition — logging
// once per binding generation so a fingerprint mismatch is visible without
// flooding.
func (t *Tier) NoteBypass(reason string) {
	t.mu.Lock()
	logged := t.bypassLogged
	t.bypassLogged = true
	t.mu.Unlock()
	if !logged {
		t.logf("artifact: tier bypassed: %s", reason)
	}
}

// ReadVector serves a precomputed score vector for (space, source), or
// reports a miss (unbound space or uncovered source) that the caller
// resolves with an iterative solve.
func (t *Tier) ReadVector(space uint64, source int) ([]float64, bool) {
	t.mu.RLock()
	a := t.bind[space]
	t.mu.RUnlock()
	if a == nil {
		t.misses.Add(1)
		return nil, false
	}
	vec, ok := a.Row(source)
	if !ok {
		t.misses.Add(1)
		return nil, false
	}
	t.hits.Add(1)
	return vec, true
}

// Stats snapshots the tier counters.
func (t *Tier) Stats() TierStats {
	t.mu.RLock()
	bound := len(t.bind)
	gen := t.gen
	t.mu.RUnlock()
	return TierStats{
		Loaded:      t.store.Len(),
		Bound:       bound,
		BytesMapped: t.store.Bytes(),
		Hits:        t.hits.Load(),
		Misses:      t.misses.Load(),
		Fallbacks:   t.fallbacks.Load(),
		Rebinds:     t.rebinds.Load(),
		Generation:  gen,
	}
}
