package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// SlowQueryEntry is one line of the slow-query log: everything needed to
// understand why a single query was slow without re-running it — which
// path answered it, where the time went stage by stage, and how the cache
// treated its sources. Field names are stable; dashboards parse them.
type SlowQueryEntry struct {
	// Time is when the query finished.
	Time time.Time `json:"ts"`
	// Queries is the query node set.
	Queries []int `json:"queries"`
	// Path is the execution path: "full", "fast", or "fast_fallback"
	// (matching the path label of ceps_queries_total), "rank" or
	// "infer_k" for the Steps 1–2-only query types, or "replace" for a
	// subteam-replacement request, whose Queries are the team.
	Path string `json:"path"`
	// ElapsedMS is the total response time in milliseconds.
	ElapsedMS float64 `json:"elapsed_ms"`
	// PartitionMS/SolveMS/CombineMS/ExtractMS attribute the response time
	// to the pipeline stages (Fast CePS union prep, Step 1, Step 2, Step 3).
	PartitionMS float64 `json:"partition_ms,omitempty"`
	SolveMS     float64 `json:"solve_ms"`
	CombineMS   float64 `json:"combine_ms"`
	ExtractMS   float64 `json:"extract_ms"`
	// CacheHits/CacheMisses count this query's sources served from the
	// score cache (or a joined in-flight solve) vs. solved fresh.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// ArtifactHits counts the misses answered by a precomputed artifact
	// row read instead of an iterative solve (subset of CacheMisses).
	// Always emitted (no omitempty): dashboards difference it against
	// cache_misses, and an absent field is indistinguishable from zero.
	ArtifactHits int `json:"artifact_hits"`
	// Fallback is the degradation reason when Path is "fast_fallback".
	Fallback string `json:"fallback,omitempty"`
	// Degraded is the fidelity-reduction mode ("relaxed_tol",
	// "full_graph_fallback") when the answer was degraded.
	Degraded string `json:"degraded,omitempty"`
	// DegradedReason is the load condition that caused the degradation
	// ("queue_pressure", "breaker_open"), distinct from Degraded which
	// names the mode.
	DegradedReason string `json:"degraded_reason,omitempty"`
	// Shed is the shed reason ("queue_full", "queue_timeout",
	// "breaker_open", "coalesce_wait") when the request was load-shed
	// before reaching the pipeline.
	Shed string `json:"shed,omitempty"`
	// TraceID links the entry to its retained trace in /debug/traces?id=
	// (empty when tracing is off or the trace was not sampled).
	TraceID string `json:"trace_id,omitempty"`
	// SolveKernel and SolveSweeps summarize Step 1: which kernel answered
	// ("blocked" or "artifact") and the total power-iteration sweeps
	// across the query's sources (0 when every source was a cache hit or
	// an artifact row).
	SolveKernel string `json:"solve_kernel,omitempty"`
	SolveSweeps int    `json:"solve_sweeps"`
	// Error is set when the query failed (failures slower than the
	// threshold are logged too — a timeout is the slowest query there is).
	Error string `json:"error,omitempty"`
}

// SlowLog writes one JSON line per query whose response time crosses a
// threshold. It is safe for concurrent use; a nil *SlowLog is a valid
// no-op receiver, so callers thread it unconditionally.
type SlowLog struct {
	mu        sync.Mutex
	w         io.Writer
	threshold time.Duration
	logged    uint64
}

// NewSlowLog returns a log writing entries over threshold to w.
// threshold <= 0 logs every query (useful in tests and trace sessions).
func NewSlowLog(w io.Writer, threshold time.Duration) *SlowLog {
	return &SlowLog{w: w, threshold: threshold}
}

// Threshold returns the configured threshold.
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.threshold
}

// Logged returns how many entries have been written.
func (l *SlowLog) Logged() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.logged
}

// Record writes e as one JSON line if its elapsed time crosses the
// threshold, and reports whether it did. Encoding failures are swallowed:
// the slow-query log is diagnostics, never a reason to fail a query.
func (l *SlowLog) Record(e SlowQueryEntry) bool {
	if l == nil {
		return false
	}
	if time.Duration(e.ElapsedMS*float64(time.Millisecond)) < l.threshold {
		return false
	}
	line, err := json.Marshal(e)
	if err != nil {
		return false
	}
	line = append(line, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.w.Write(line); err != nil {
		return false
	}
	l.logged++
	return true
}
