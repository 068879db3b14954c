package obs

import (
	"fmt"
	"sync"
	"time"
)

// This file is the SLO engine of the flight recorder: declarative
// objectives (latency, error rate, shed rate, cache/artifact hit rate)
// evaluated over rotating multi-window sliding aggregates (1m/5m/1h), with
// burn-rate computation against each objective's error budget. The
// aggregates are good/bad event counts — a latency objective of "p99 ≤
// 250ms" is tracked as "≥ 99% of requests finish within 250ms", which
// aggregates exactly across windows and shards the way a windowed
// quantile sketch would not.

// ObjectiveKind selects which query-outcome signal feeds an objective.
type ObjectiveKind int

const (
	// ObjectiveLatency counts a request good when it succeeded within
	// LatencyBound. Sheds are excluded (they are the shed objective's
	// signal); errors count bad — a timeout is the slowest request there is.
	ObjectiveLatency ObjectiveKind = iota
	// ObjectiveErrorRate counts a non-shed request good when it succeeded.
	ObjectiveErrorRate
	// ObjectiveShedRate counts every request, good unless it was shed.
	ObjectiveShedRate
	// ObjectiveCacheHitRate counts per-source cache lookups (hits good,
	// misses bad).
	ObjectiveCacheHitRate
	// ObjectiveArtifactHitRate counts cache misses consulting the
	// precompute tier (artifact rows good, iterative fallbacks bad).
	ObjectiveArtifactHitRate
)

// String names the kind for JSON status and metric labels.
func (k ObjectiveKind) String() string {
	switch k {
	case ObjectiveLatency:
		return "latency"
	case ObjectiveErrorRate:
		return "error_rate"
	case ObjectiveShedRate:
		return "shed_rate"
	case ObjectiveCacheHitRate:
		return "cache_hit_rate"
	case ObjectiveArtifactHitRate:
		return "artifact_hit_rate"
	default:
		return fmt.Sprintf("ObjectiveKind(%d)", int(k))
	}
}

// Objective is one declarative service-level objective.
type Objective struct {
	// Name labels the objective in metrics, /debug/slo and triggers.
	Name string
	// Kind selects the signal (latency, error rate, ...).
	Kind ObjectiveKind
	// Target is the minimum good fraction in (0, 1); 1-Target is the error
	// budget burn rates are computed against.
	Target float64
	// LatencyBound is the per-request bound for ObjectiveLatency.
	LatencyBound time.Duration
	// NoBurnAlert excludes the objective from burn-rate triggering (it is
	// still tracked and exported). Hit-rate objectives set it — a cold cache
	// is not an incident; the hit-rate-collapse detector compares windows
	// against each other instead.
	NoBurnAlert bool
}

// Validate rejects unusable objectives.
func (o Objective) Validate() error {
	if o.Name == "" {
		return fmt.Errorf("obs: objective needs a name")
	}
	if o.Target <= 0 || o.Target >= 1 {
		return fmt.Errorf("obs: objective %q target %g outside (0, 1)", o.Name, o.Target)
	}
	if o.Kind == ObjectiveLatency && o.LatencyBound <= 0 {
		return fmt.Errorf("obs: latency objective %q needs a positive bound", o.Name)
	}
	return nil
}

// DefaultObjectives is the stock objective set an engine arms when the
// caller gives none: latency p99, error rate, shed rate and cache hit
// rate. The artifact hit-rate objective is appended by engines with a
// precompute tier attached.
func DefaultObjectives() []Objective {
	return []Objective{
		{Name: "latency_p99", Kind: ObjectiveLatency, Target: 0.99, LatencyBound: 250 * time.Millisecond},
		{Name: "error_rate", Kind: ObjectiveErrorRate, Target: 0.999},
		{Name: "shed_rate", Kind: ObjectiveShedRate, Target: 0.99},
		{Name: "cache_hit_rate", Kind: ObjectiveCacheHitRate, Target: 0.80, NoBurnAlert: true},
	}
}

// sloWindowSpec fixes the three rotating windows every objective tracks.
// Order matters: window 0 is the fast burn window, window 1 the slow one,
// window 2 the long baseline the collapse detector compares against.
var sloWindowSpec = []struct {
	name      string
	bucketDur time.Duration
	buckets   int
}{
	{"1m", time.Second, 60},
	{"5m", 5 * time.Second, 60},
	{"1h", time.Minute, 60},
}

// sloBucket is one rotating slice of a sliding window. slot is the
// absolute bucket index (unix nanos / bucket duration); a stale slot means
// the slice has wrapped and is reset before use — the same idiom as the
// circuit breaker's failure window.
type sloBucket struct {
	slot      int64
	good, bad uint64
}

// sloWindow is one rotating good/bad aggregate.
type sloWindow struct {
	bucketDur time.Duration
	buckets   []sloBucket
}

func newSLOWindow(bucketDur time.Duration, n int) *sloWindow {
	return &sloWindow{bucketDur: bucketDur, buckets: make([]sloBucket, n)}
}

// add folds good/bad events into the live bucket. Callers hold the
// tracker's mutex.
func (w *sloWindow) add(now time.Time, good, bad uint64) {
	slot := now.UnixNano() / int64(w.bucketDur)
	bk := &w.buckets[slot%int64(len(w.buckets))]
	if bk.slot != slot {
		*bk = sloBucket{slot: slot}
	}
	bk.good += good
	bk.bad += bad
}

// counts sums the buckets still inside the window. Callers hold the
// tracker's mutex.
func (w *sloWindow) counts(now time.Time) (good, bad uint64) {
	oldest := now.UnixNano()/int64(w.bucketDur) - int64(len(w.buckets)) + 1
	for i := range w.buckets {
		if w.buckets[i].slot >= oldest {
			good += w.buckets[i].good
			bad += w.buckets[i].bad
		}
	}
	return good, bad
}

// QueryOutcome is one finished request as the SLO engine sees it. The
// engine's metered funnel fills it from the query result and error; every
// field is a plain count, so recording is a mutex and a few adds.
type QueryOutcome struct {
	// Latency is the end-to-end response time.
	Latency time.Duration
	// Err reports a failed (non-shed) request.
	Err bool
	// Shed reports a load-shed request (ErrOverloaded).
	Shed bool
	// CacheHits/CacheMisses are the request's per-source score-cache
	// outcomes; ArtifactHits counts the misses answered by the precompute
	// tier.
	CacheHits, CacheMisses, ArtifactHits int
}

// WindowStatus is one window's aggregate in ObjectiveStatus.
type WindowStatus struct {
	// Window names the span: "1m", "5m" or "1h".
	Window string `json:"window"`
	// Good and Bad are the event counts still inside the window.
	Good uint64 `json:"good"`
	Bad  uint64 `json:"bad"`
	// GoodRatio is Good/(Good+Bad), 1 with no samples (no news is good
	// news for burn computation).
	GoodRatio float64 `json:"good_ratio"`
	// BurnRate is (1-GoodRatio)/(1-Target): 1.0 burns the error budget
	// exactly at the sustainable rate, higher is faster.
	BurnRate float64 `json:"burn_rate"`
}

// ObjectiveStatus is one objective's live evaluation in the /debug/slo
// document. Field names are an operator contract.
type ObjectiveStatus struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Target float64 `json:"target"`
	// LatencyBoundMS is the per-request bound for latency objectives.
	LatencyBoundMS float64        `json:"latency_bound_ms,omitempty"`
	Windows        []WindowStatus `json:"windows"`
	// FastBurn and SlowBurn are the 1m and 5m burn rates the trigger
	// pipeline alerts on; Breached reports both over their thresholds now.
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	Breached bool    `json:"breached"`
}

// objectiveState is one objective plus its rotating windows.
type objectiveState struct {
	obj     Objective
	windows []*sloWindow
}

// SLOTracker evaluates a set of objectives over the fixed 1m/5m/1h
// windows. Safe for concurrent use; recording is one mutex acquisition
// for all objectives.
type SLOTracker struct {
	mu        sync.Mutex
	objs      []*objectiveState
	fastBurn  float64 // breach threshold on the 1m window
	slowBurn  float64 // breach threshold on the 5m window
	minEvents uint64  // samples a window needs before its burn rate is acted on
}

// NewSLOTracker builds a tracker. fastBurn/slowBurn are the breach
// thresholds on the 1m and 5m windows (≤ 0 picks 14.4 and 6, the classic
// multiwindow page thresholds scaled to these spans); minEvents guards
// cold windows from alerting (≤ 0 picks 20).
func NewSLOTracker(objectives []Objective, fastBurn, slowBurn float64, minEvents int) (*SLOTracker, error) {
	if fastBurn <= 0 {
		fastBurn = 14.4
	}
	if slowBurn <= 0 {
		slowBurn = 6
	}
	if minEvents <= 0 {
		minEvents = 20
	}
	t := &SLOTracker{fastBurn: fastBurn, slowBurn: slowBurn, minEvents: uint64(minEvents)}
	for _, o := range objectives {
		if err := o.Validate(); err != nil {
			return nil, err
		}
		st := &objectiveState{obj: o}
		for _, spec := range sloWindowSpec {
			st.windows = append(st.windows, newSLOWindow(spec.bucketDur, spec.buckets))
		}
		t.objs = append(t.objs, st)
	}
	return t, nil
}

// Observe folds one finished request into every objective's windows. A nil
// tracker is a valid no-op receiver.
func (t *SLOTracker) Observe(o QueryOutcome) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, st := range t.objs {
		var good, bad uint64
		switch st.obj.Kind {
		case ObjectiveLatency:
			if o.Shed {
				continue
			}
			if !o.Err && o.Latency <= st.obj.LatencyBound {
				good = 1
			} else {
				bad = 1
			}
		case ObjectiveErrorRate:
			if o.Shed {
				continue
			}
			if o.Err {
				bad = 1
			} else {
				good = 1
			}
		case ObjectiveShedRate:
			if o.Shed {
				bad = 1
			} else {
				good = 1
			}
		case ObjectiveCacheHitRate:
			good, bad = uint64(o.CacheHits), uint64(o.CacheMisses)
		case ObjectiveArtifactHitRate:
			good = uint64(o.ArtifactHits)
			if miss := o.CacheMisses - o.ArtifactHits; miss > 0 {
				bad = uint64(miss)
			}
		}
		if good == 0 && bad == 0 {
			continue
		}
		for _, w := range st.windows {
			w.add(now, good, bad)
		}
	}
}

// burn computes a window's burn rate against an objective's error budget.
func burn(good, bad uint64, target float64) (ratio, burnRate float64) {
	total := good + bad
	if total == 0 {
		return 1, 0
	}
	ratio = float64(good) / float64(total)
	return ratio, (1 - ratio) / (1 - target)
}

// Status evaluates every objective now. A nil tracker returns nil.
func (t *SLOTracker) Status() []ObjectiveStatus {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]ObjectiveStatus, 0, len(t.objs))
	for _, st := range t.objs {
		os := ObjectiveStatus{
			Name:   st.obj.Name,
			Kind:   st.obj.Kind.String(),
			Target: st.obj.Target,
		}
		if st.obj.Kind == ObjectiveLatency {
			os.LatencyBoundMS = float64(st.obj.LatencyBound.Nanoseconds()) / 1e6
		}
		var totals []uint64
		for i, w := range st.windows {
			good, bad := w.counts(now)
			ratio, br := burn(good, bad, st.obj.Target)
			os.Windows = append(os.Windows, WindowStatus{
				Window:    sloWindowSpec[i].name,
				Good:      good,
				Bad:       bad,
				GoodRatio: ratio,
				BurnRate:  br,
			})
			totals = append(totals, good+bad)
		}
		os.FastBurn = os.Windows[0].BurnRate
		os.SlowBurn = os.Windows[1].BurnRate
		os.Breached = !st.obj.NoBurnAlert &&
			totals[0] >= t.minEvents && totals[1] >= t.minEvents &&
			os.FastBurn >= t.fastBurn && os.SlowBurn >= t.slowBurn
		out = append(out, os)
	}
	return out
}

// WindowRatio returns one objective's good ratio and sample count over the
// named window ("1m", "5m", "1h"); ok is false for an unknown objective
// or window. The anomaly detectors (shed surge, hit-rate collapse) read
// through this instead of re-deriving window math.
func (t *SLOTracker) WindowRatio(objective, window string) (ratio float64, samples uint64, ok bool) {
	if t == nil {
		return 0, 0, false
	}
	wi := -1
	for i, spec := range sloWindowSpec {
		if spec.name == window {
			wi = i
		}
	}
	if wi < 0 {
		return 0, 0, false
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, st := range t.objs {
		if st.obj.Name != objective {
			continue
		}
		good, bad := st.windows[wi].counts(now)
		r, _ := burn(good, bad, st.obj.Target)
		return r, good + bad, true
	}
	return 0, 0, false
}
