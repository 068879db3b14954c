package rwr

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ceps/internal/fault"
)

// This file is the online request coalescer of Step 1's serving layer: it
// converts the blocked kernel's single-caller win (one fused SpMM sweep
// advances Q walks) into cross-request throughput. Concurrent cache misses
// for the *same key space* — independent queries from independent clients —
// enqueue into a forming "panel" instead of each solving alone. A panel is
// released when the first of three things happens: a pool slot frees (an
// idle pool adds no latency — the panel solves immediately at whatever
// width it reached), the latency budget expires, or the panel hits its
// width cap. The whole panel then solves as one ScoresSetBlockedCtx call
// under one pool slot and fans back out to the waiting single-flight
// entries. Answers are bit-identical to scalar solves because the blocked
// kernel is column-wise identical to ScoresCtx (see blocked.go).
//
// The §6 cost model view: under concurrency the solve stage is bandwidth
// bound on streaming the transition matrix, and a panel of width Q streams
// it once instead of Q times. The latency budget bounds the worst-case
// delay a lone request pays for the chance to amortize (default 1ms, small
// against a multi-sweep solve); the width cap bounds panel memory and keeps
// each panel to one pass of the sweep kernel.

// DefaultCoalesceWait is the forming budget used when CoalesceOptions.MaxWait
// is unset: long enough to gather concurrent arrivals under load, small
// against one solve's sweep time.
const DefaultCoalesceWait = time.Millisecond

// DefaultCoalesceWidth is the panel width cap used when
// CoalesceOptions.MaxWidth is unset. 16 columns are one matrix pass of the
// AVX-512 sweep kernel (two 8-lane registers), the cheapest width per
// nonzero-column that BenchmarkBlockedSweep measures; wider panels need a
// second pass and cost no less per column (DESIGN.md §6.6).
const DefaultCoalesceWidth = 16

// CoalesceOptions bound how long and how wide a panel may form.
type CoalesceOptions struct {
	// MaxWait is the forming latency budget: the longest a panel waits for
	// more members before it stops accepting joins (it may still wait for a
	// pool slot after that). ≤ 0 means DefaultCoalesceWait.
	MaxWait time.Duration
	// MaxWidth caps the panel width (sources per blocked solve). ≤ 0 means
	// DefaultCoalesceWidth.
	MaxWidth int
}

func (o CoalesceOptions) normalized() CoalesceOptions {
	if o.MaxWait <= 0 {
		o.MaxWait = DefaultCoalesceWait
	}
	if o.MaxWidth <= 0 {
		o.MaxWidth = DefaultCoalesceWidth
	}
	return o
}

// CoalesceStats is a point-in-time snapshot of a Coalescer's counters.
type CoalesceStats struct {
	// Panels counts successfully solved panels; Rows counts the score
	// vectors they produced (Rows/Panels is the mean width).
	Panels uint64 `json:"panels"`
	Rows   uint64 `json:"rows"`
	// MaxWidth is the widest panel solved so far.
	MaxWidth int `json:"max_width"`
	// Aborts counts panels abandoned before solving because every waiter
	// left (their contexts died); Errors counts panels whose solve failed.
	Aborts uint64 `json:"aborts"`
	Errors uint64 `json:"errors"`
}

// panelKey scopes a forming panel: only misses against the same solver and
// cache key space may share a blocked solve (the space already encodes the
// RWR config and graph identity, so members of one panel are guaranteed to
// want columns of the same linear system).
type panelKey struct {
	solver *Solver
	space  uint64
}

// panelEntry is one cache miss riding a panel: the source to solve and the
// single-flight entry its waiters (and any external followers) block on.
type panelEntry struct {
	q  int
	fl *flight
}

// cpanel is one forming/solving panel. Membership fields are guarded by the
// owning Coalescer's mutex; width and wait are written once at seal, before
// the solve, and may be read by waiters only after their flight's done
// channel closed (seal happens-before finish).
type cpanel struct {
	co    *Coalescer
	key   panelKey
	cache *ScoreCache
	pool  *Pool

	// ctx is detached from any single member (members come and go); it is
	// canceled when the last interested waiter leaves, which aborts a
	// forming panel and cancels an in-flight solve nobody wants.
	ctx    context.Context
	cancel context.CancelFunc

	created time.Time
	entries []panelEntry
	live    int           // waiters still interested; 0 ⇒ cancel
	sealed  bool          // no more joins; membership snapshot is final
	full    chan struct{} // closed when the width cap is reached

	width int           // final membership size, set at seal
	wait  time.Duration // creation → seal: the forming delay members paid
}

// Coalescer merges concurrent cache misses into blocked solve panels. One
// Coalescer is shared engine-wide (like the cache and pool it fronts); it
// is goroutine-safe and holds no memory between panels.
type Coalescer struct {
	opts CoalesceOptions

	mu      sync.Mutex
	panels  map[panelKey]*cpanel
	stats   CoalesceStats
	onSolve func(width int)
}

// NewCoalescer returns a coalescer with the given bounds (zero values are
// replaced by the defaults above).
func NewCoalescer(opts CoalesceOptions) *Coalescer {
	return &Coalescer{
		opts:   opts.normalized(),
		panels: make(map[panelKey]*cpanel),
	}
}

// Options returns the normalized bounds the coalescer runs with.
func (co *Coalescer) Options() CoalesceOptions { return co.opts }

// Stats returns a snapshot of the coalescer's counters.
func (co *Coalescer) Stats() CoalesceStats {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.stats
}

// OnSolve registers a callback invoked once per solved panel with its
// width (metrics hook). Set it before serving traffic; it runs on the
// panel goroutine and must not block.
func (co *Coalescer) OnSolve(fn func(width int)) {
	co.mu.Lock()
	co.onSolve = fn
	co.mu.Unlock()
}

// enqueue adds a group of freshly registered flight leaders to forming
// panels for (s, space), creating panels (and their run goroutines) as
// needed and spilling into a new panel whenever the current one is full.
// The whole group joins atomically — a multi-source query arriving at an
// idle coalescer lands in one panel and keeps PR 4's single-caller fusion.
// The returned slice parallels entries: the panel each entry joined. Every
// entry holds one liveness reference on its panel; the caller must balance
// it with wait or leave.
func (co *Coalescer) enqueue(s *Solver, cache *ScoreCache, space uint64, pool *Pool, entries []panelEntry) []*cpanel {
	key := panelKey{solver: s, space: space}
	joined := make([]*cpanel, len(entries))
	var spawned []*cpanel
	co.mu.Lock()
	p := co.panels[key]
	for i, e := range entries {
		if p == nil || p.sealed || len(p.entries) >= co.opts.MaxWidth {
			p = &cpanel{
				co:      co,
				key:     key,
				cache:   cache,
				pool:    pool,
				created: time.Now(),
				full:    make(chan struct{}),
			}
			p.ctx, p.cancel = context.WithCancel(context.Background())
			co.panels[key] = p
			spawned = append(spawned, p)
		}
		p.entries = append(p.entries, e)
		p.live++
		joined[i] = p
		if len(p.entries) >= co.opts.MaxWidth {
			// Width cap: stop accepting joins now. run() seals and solves
			// as soon as a pool slot admits it.
			close(p.full)
			delete(co.panels, key)
		}
	}
	co.mu.Unlock()
	for _, p := range spawned {
		go p.run()
	}
	return joined
}

// wait blocks until the panel's solve resolves the waiter's flight or the
// waiter's own context fires, with flight.wait's retry contract. A context
// death while the panel is still forming is classified as a coalesce_wait
// shed (ErrOverloaded wrapping the context identity) — the request died
// queueing for a shared solve, which is load; a death after the solve
// launched propagates as the plain context error, exactly as an uncoalesced
// solve would. Either way the waiter's liveness reference is released; when
// the last waiter leaves, the panel is canceled (see leave).
func (co *Coalescer) wait(ctx context.Context, p *cpanel, fl *flight) ([]float64, Diagnostics, bool, error) {
	defer p.leave()
	vec, diag, retry, err := fl.wait(ctx)
	if err != nil {
		// A panel seals before it finishes any flight, so an error while it
		// is still forming can only be the waiter's own context.
		co.mu.Lock()
		forming := !p.sealed
		co.mu.Unlock()
		if forming {
			return nil, Diagnostics{}, false, fault.Overload("coalesce_wait", 0, err)
		}
	}
	return vec, diag, retry, err
}

// leave releases one waiter's interest in the panel. The last leaver
// cancels the panel context: a still-forming panel aborts (finishing its
// flights with a contextual error so external followers retry), and an
// in-flight solve is canceled rather than burning a pool slot for nobody.
func (p *cpanel) leave() {
	p.co.mu.Lock()
	p.live--
	dead := p.live == 0
	p.co.mu.Unlock()
	if dead {
		p.cancel()
	}
}

// seal stops the panel from accepting joins, finalizes its membership
// snapshot and width/wait accounting, and detaches it from the forming
// map. Idempotent; called from run (slot/budget/full/abort) while enqueue
// may still be appending — the shared mutex makes the group join atomic
// with respect to the snapshot.
func (p *cpanel) seal() []panelEntry {
	p.co.mu.Lock()
	if !p.sealed {
		p.sealed = true
		if p.co.panels[p.key] == p {
			delete(p.co.panels, p.key)
		}
		p.width = len(p.entries)
		p.wait = time.Since(p.created)
	}
	ents := p.entries
	p.co.mu.Unlock()
	return ents
}

// run is the panel's lifecycle goroutine: form until a pool slot frees,
// the latency budget expires, or the width cap closes full — then seal,
// solve the whole panel as one blocked call, and fan the columns back out
// through the single-flight entries. It never outlives its solve.
func (p *cpanel) run() {
	timer := time.NewTimer(p.co.opts.MaxWait)
	defer timer.Stop()

	acquired := false
	if p.pool != nil {
		if inj := fault.ActiveInjector(); inj != nil && inj.Fire(fault.InjectPoolStarve) {
			// Chaos: a wedged pool — the panel can only abort once its
			// waiters give up (mirrors Pool.acquire's starve hook).
			<-p.ctx.Done()
			p.abort()
			return
		}
		// Forming phase: the first slot to free releases the panel early —
		// an idle pool coalesces nothing and adds no latency.
		select {
		case p.pool.sem <- struct{}{}:
			acquired = true
		case <-timer.C:
		case <-p.full:
		case <-p.ctx.Done():
			p.abort()
			return
		}
		if !acquired {
			// Budget burned or panel full: membership is final, but the
			// solve still needs a slot.
			p.seal()
			select {
			case p.pool.sem <- struct{}{}:
				acquired = true
			case <-p.ctx.Done():
				p.abort()
				return
			}
		}
	} else {
		select {
		case <-timer.C:
		case <-p.full:
		case <-p.ctx.Done():
			p.abort()
			return
		}
	}

	entries := p.seal()
	queries := make([]int, len(entries))
	for i, e := range entries {
		queries[i] = e.q
	}
	R, diags, err := p.key.solver.ScoresSetBlockedCtx(p.ctx, queries, 1)
	if acquired {
		p.pool.release()
	}
	if err != nil {
		// Every registered flight must be finished or followers would wait
		// forever. Contextual errors (the panel was abandoned mid-solve)
		// make external followers retry; real solve failures propagate.
		for _, e := range entries {
			p.cache.finish(p.key.space, e.q, e.fl, nil, Diagnostics{}, err)
		}
		p.co.noteError()
		return
	}
	for i, e := range entries {
		// finish stores each column under the cache's generation guard: a
		// Reconfigure between join and solve drops the store (StaleDrops)
		// while still delivering the column to its waiters.
		p.cache.finish(p.key.space, e.q, e.fl, R[i], diags[i], nil)
	}
	p.co.noteSolve(len(entries))
}

// abort finishes every member flight with a contextual error: panel
// waiters are gone (they leave before this fires), and external followers
// of these flights see a cancellation and retry under their own contexts,
// possibly becoming fresh leaders. A forming panel therefore cannot wedge
// the key space it was registered under.
func (p *cpanel) abort() {
	entries := p.seal()
	err := fmt.Errorf("rwr: coalesced panel abandoned: %w", fault.FromContext(p.ctx))
	for _, e := range entries {
		p.cache.finish(p.key.space, e.q, e.fl, nil, Diagnostics{}, err)
	}
	p.co.mu.Lock()
	p.co.stats.Aborts++
	p.co.mu.Unlock()
}

func (p *cpanel) noteStats(stats *ServeStats) {
	if p.width > stats.CoalescedWidth {
		stats.CoalescedWidth = p.width
	}
	if p.wait > stats.CoalesceWait {
		stats.CoalesceWait = p.wait
	}
}

func (co *Coalescer) noteSolve(width int) {
	co.mu.Lock()
	co.stats.Panels++
	co.stats.Rows += uint64(width)
	if width > co.stats.MaxWidth {
		co.stats.MaxWidth = width
	}
	fn := co.onSolve
	co.mu.Unlock()
	if fn != nil {
		fn(width)
	}
}

func (co *Coalescer) noteError() {
	co.mu.Lock()
	co.stats.Errors++
	co.mu.Unlock()
}
