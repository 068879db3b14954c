// Package obs is the stdlib-only observability layer of the serving
// system: a small metrics registry (atomic counters, gauges, and
// fixed-bucket latency histograms) with a Prometheus-text-format encoder,
// an admin HTTP mux (/metrics, /healthz, /debug/vars, pprof), and a
// structured slow-query log.
//
// The registry is deliberately tiny compared to a real client library: no
// dynamic label cardinality (labels are fixed at registration), no summary
// quantiles (fixed-bucket histograms aggregate correctly across scrapes
// and shards, which is what the later scaling PRs need), and no push
// support. Everything on the hot path is a single atomic op.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Label is one constant name/value pair attached to a metric at
// registration time. Metrics sharing a name but differing in labels form
// one exposition family (one HELP/TYPE header, many sample lines).
type Label struct {
	Name, Value string
}

// metricKind discriminates the exposition TYPE of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// sampler is anything a family can hold: it knows its labels and renders
// its sample lines.
type sampler interface {
	labelSet() []Label
}

// family groups every metric registered under one name.
type family struct {
	name    string
	help    string
	kind    metricKind
	metrics []sampler // registration order
}

// Registry holds metric families and encodes them in Prometheus text
// exposition format. All methods are safe for concurrent use; metric
// updates (Inc/Add/Set/Observe) never take the registry lock.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // family registration order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register adds m under name, creating the family on first use. It is
// get-or-create on (name, labels): registering the same name+labels twice
// returns the existing metric, and a kind clash panics (programmer error,
// caught by any test touching the path).
func (r *Registry) register(name, help string, kind metricKind, m sampler) sampler {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as both %v and %v", name, f.kind, kind))
	}
	for _, existing := range f.metrics {
		if sameLabels(existing.labelSet(), m.labelSet()) {
			return existing
		}
	}
	f.metrics = append(f.metrics, m)
	return m
}

func sameLabels(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter is a monotonically increasing event count.
type Counter struct {
	labels []Label
	v      atomic.Uint64
}

func (c *Counter) labelSet() []Label { return c.labels }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n events.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Counter returns (registering on first use) the counter for name+labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, kindCounter, &Counter{labels: labels}).(*Counter)
}

// counterFunc exposes a read-only view of an externally maintained
// monotonic count (e.g. cache hit totals owned by the cache itself).
type counterFunc struct {
	labels []Label
	fn     func() float64
}

func (c *counterFunc) labelSet() []Label { return c.labels }

// CounterFunc registers a counter whose value is read from fn at encode
// time. fn must be monotonic and safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindCounter, &counterFunc{labels: labels, fn: fn})
}

// Gauge is a value that can go up and down.
type Gauge struct {
	labels []Label
	bits   atomic.Uint64 // math.Float64bits
}

func (g *Gauge) labelSet() []Label { return g.labels }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by d (negative d decrements).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Gauge returns (registering on first use) the gauge for name+labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.register(name, help, kindGauge, &Gauge{labels: labels}).(*Gauge)
}

// gaugeFunc exposes a read-only view of externally maintained state.
type gaugeFunc struct {
	labels []Label
	fn     func() float64
}

func (g *gaugeFunc) labelSet() []Label { return g.labels }

// GaugeFunc registers a gauge whose value is read from fn at encode time.
// fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGauge, &gaugeFunc{labels: labels, fn: fn})
}

// Histogram is a fixed-bucket latency/size distribution. Buckets are upper
// bounds (le semantics); an implicit +Inf bucket catches the tail.
// Observe is two atomic ops (bucket count + sum) and never allocates.
type Histogram struct {
	labels  []Label
	upper   []float64       // sorted ascending, +Inf excluded
	counts  []atomic.Uint64 // len(upper)+1; last is +Inf
	sumBits atomic.Uint64   // math.Float64bits of the running sum
}

func (h *Histogram) labelSet() []Label { return h.labels }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound admits v (le: v <= upper[i]).
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// snapshot returns cumulative bucket counts (aligned with upper, +Inf
// last), the total count, and the sum. Counts are read in bucket order
// after the sum, so a concurrent Observe can at worst surface as a sum
// without its bucket yet — each individual read is atomic and the encoded
// cumulative series is always monotone.
func (h *Histogram) snapshot() (cum []uint64, count uint64, sum float64) {
	sum = math.Float64frombits(h.sumBits.Load())
	cum = make([]uint64, len(h.counts))
	var running uint64
	for i := range h.counts {
		running += h.counts[i].Load()
		cum[i] = running
	}
	return cum, running, sum
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 {
	_, n, _ := h.snapshot()
	return n
}

// Sum returns the sum of observed values so far.
func (h *Histogram) Sum() float64 {
	_, _, s := h.snapshot()
	return s
}

// Quantile estimates the q-quantile (q in [0,1]) from the bucket
// cumulative counts with linear interpolation inside the winning bucket.
// Edge cases are pinned — the resilience layer's retry budgeting consumes
// this under exactly the cold-start conditions that hit them: with no
// observations it returns 0; q outside [0,1] (including NaN) clamps to the
// nearest endpoint; when the quantile lands in the +Inf overflow bucket it
// returns the largest finite bound (a deliberate underestimate — good
// enough for admission budgeting, which only needs scale), or 0 when the
// histogram has no finite bound at all. It never panics.
func (h *Histogram) Quantile(q float64) float64 {
	cum, _, _ := h.snapshot()
	return bucketQuantile(h.upper, cum, q)
}

// bucketQuantile is Histogram.Quantile over any cumulative bucket series
// cum (aligned with upper, +Inf last): the lifetime snapshot, or the
// flight recorder's window delta.
func bucketQuantile(upper []float64, cum []uint64, q float64) float64 {
	count := cum[len(cum)-1]
	// All bounds can be +Inf at registration time (they dedup/strip to an
	// empty finite list, leaving only the overflow bucket); there is no
	// finite bound to report.
	if count == 0 || len(upper) == 0 {
		return 0
	}
	// NaN fails both comparisons; treat it like q = 1 (the conservative
	// end for a latency budget) rather than letting it select no bucket.
	if q < 0 {
		q = 0
	} else if q > 1 || math.IsNaN(q) {
		q = 1
	}
	rank := q * float64(count)
	for i, c := range cum {
		if float64(c) < rank {
			continue
		}
		if i >= len(upper) {
			return upper[len(upper)-1] // +Inf tail
		}
		lo, loCum := 0.0, uint64(0)
		if i > 0 {
			lo, loCum = upper[i-1], cum[i-1]
		}
		inBucket := float64(c - loCum)
		if inBucket <= 0 {
			return upper[i]
		}
		return lo + (upper[i]-lo)*(rank-float64(loCum))/inBucket
	}
	return upper[len(upper)-1]
}

// Histogram returns (registering on first use) the histogram for
// name+labels with the given upper bounds. Bounds are sorted and
// deduplicated; +Inf is implicit. An empty bucket list panics.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if len(buckets) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	upper := append([]float64(nil), buckets...)
	sort.Float64s(upper)
	dedup := upper[:1]
	for _, b := range upper[1:] {
		if b != dedup[len(dedup)-1] {
			dedup = append(dedup, b)
		}
	}
	if math.IsInf(dedup[len(dedup)-1], +1) {
		dedup = dedup[:len(dedup)-1] // +Inf is implicit
	}
	h := &Histogram{labels: labels, upper: dedup, counts: make([]atomic.Uint64, len(dedup)+1)}
	return r.register(name, help, kindHistogram, h).(*Histogram)
}

// DurationBuckets is a general-purpose latency bucket ladder in seconds,
// spanning 100µs to 10s — wide enough for both a warm cache hit on a small
// union and a cold full-graph solve.
func DurationBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}
