package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the flight recorder itself: the orchestrator that joins the
// SLO tracker (slo.go), the anomaly detectors (anomaly.go), and the bundle
// store (bundle.go) behind one nil-safe handle the engine arms with
// WithFlightRecorder. A background evaluator ticks the detectors, keeps a
// short history ring for dashboard sparklines, and mirrors the live SLO
// state into ceps_slo_* / ceps_flight_* metrics.

// TrackedHistogram names one registry histogram whose windowed p50/p99 the
// recorder samples into the dashboard history (stage latencies, total
// duration).
type TrackedHistogram struct {
	Name string
	H    *Histogram
}

// FlightOptions configures a FlightRecorder. The zero value of every field
// picks a production default; only Dir is required.
type FlightOptions struct {
	// Dir is where bundles are written (created if missing). Required.
	Dir string
	// DiskBudgetBytes bounds the bundle directory; oldest bundles are
	// evicted past it. Default 256 MiB.
	DiskBudgetBytes int64
	// CPUProfile is how long a bundle's CPU profile samples for. Default
	// 2s; negative disables the CPU profile.
	CPUProfile time.Duration
	// TraceCount is how many kept traces a bundle includes. Default 32.
	TraceCount int
	// Objectives to track; default DefaultObjectives().
	Objectives []Objective
	// EvalInterval is the detector tick. Default 1s.
	EvalInterval time.Duration
	// Debounce is the global capture cooldown across all trigger kinds.
	// Default 2m.
	Debounce time.Duration
	// FastBurn/SlowBurn are the 1m/5m burn-rate breach thresholds.
	// Defaults 14.4 and 6.
	FastBurn, SlowBurn float64
	// MinEvents guards cold windows from alerting. Default 20.
	MinEvents int
	// SpikeK and SpikeSustain tune the EWMA+MAD latency-spike detector
	// (fire after SpikeSustain consecutive samples above ewma+K·mad).
	// Defaults 8 and 5.
	SpikeK       float64
	SpikeSustain int
	// ShedSurgeRatio is the 1m shed fraction that fires the shed-surge
	// detector. Default 0.10.
	ShedSurgeRatio float64
	// HitCollapseDelta fires the hit-rate-collapse detector when the 1m
	// cache hit ratio drops this far below the 1h baseline. Default 0.30.
	HitCollapseDelta float64

	// Registry, when set, gets the ceps_slo_* / ceps_flight_* families and
	// is snapshotted into each bundle's metrics.prom.
	Registry *Registry
	// Traces, when set, supplies each bundle's traces.json.
	Traces *TraceStore
	// Stats are named subsystem snapshots for each bundle's stats.json.
	Stats []StatSource
	// Histograms are sampled into the dashboard history ring.
	Histograms []TrackedHistogram
	// Logf, when set, receives capture failures (default: dropped).
	Logf func(format string, args ...any)
}

func (o *FlightOptions) withDefaults() {
	if o.DiskBudgetBytes <= 0 {
		o.DiskBudgetBytes = 256 << 20
	}
	if o.CPUProfile == 0 {
		o.CPUProfile = 2 * time.Second
	}
	if o.TraceCount <= 0 {
		o.TraceCount = 32
	}
	if len(o.Objectives) == 0 {
		o.Objectives = DefaultObjectives()
	}
	if o.EvalInterval <= 0 {
		o.EvalInterval = time.Second
	}
	if o.Debounce <= 0 {
		o.Debounce = 2 * time.Minute
	}
	if o.ShedSurgeRatio <= 0 {
		o.ShedSurgeRatio = 0.10
	}
	if o.HitCollapseDelta <= 0 {
		o.HitCollapseDelta = 0.30
	}
}

// HistoryPoint is one evaluator tick's dashboard sample: windowed
// histogram quantiles and per-objective 1m ratios, keyed by series name.
type HistoryPoint struct {
	UnixMS int64              `json:"unix_ms"`
	Series map[string]float64 `json:"series"`
}

// FlightStatus is the /debug/slo JSON document. Field names are an
// operator contract.
type FlightStatus struct {
	Armed             bool              `json:"armed"`
	FastBurnThreshold float64           `json:"fast_burn_threshold"`
	SlowBurnThreshold float64           `json:"slow_burn_threshold"`
	Objectives        []ObjectiveStatus `json:"objectives"`
	Triggers          []TriggerRecord   `json:"triggers"`
	Bundles           []BundleInfo      `json:"bundles"`
	History           []HistoryPoint    `json:"history"`
	BundleBytes       int64             `json:"bundle_bytes"`
	BundleBudget      int64             `json:"bundle_budget"`
	CaptureInProgress bool              `json:"capture_in_progress"`
}

// histTrack carries one tracked histogram's previous snapshot for
// delta-windowed quantiles.
type histTrack struct {
	name    string
	h       *Histogram
	prevCum []uint64
}

// FlightRecorder is the armed flight recorder. All methods are safe for
// concurrent use and safe on a nil receiver (the disarmed engine's
// no-op), matching the tracer and slow-log conventions.
type FlightRecorder struct {
	opts  FlightOptions
	slo   *SLOTracker
	spike *spikeDetector
	deb   *debouncer
	ring  *triggerRing
	store *bundleStore

	lastStatus atomic.Value // []ObjectiveStatus, refreshed each tick
	capturing  atomic.Bool
	breakerSig chan Trigger // breaker-open hook → evaluator

	histMu  sync.Mutex
	hists   []*histTrack
	histLo  int // history ring state
	histN   int
	histBuf []HistoryPoint

	// edge-trigger state, owned by the evaluator goroutine
	breached  map[string]bool
	surging   bool
	collapsed bool

	breachCtr  map[string]*Counter
	triggerCtr map[string]*Counter
	bundleCtr  map[string]*Counter

	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewFlightRecorder builds and starts a recorder: the bundle directory is
// created/scanned, metrics registered, and the detector evaluator
// goroutine started. Close stops it.
func NewFlightRecorder(opts FlightOptions) (*FlightRecorder, error) {
	opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("flight: FlightOptions.Dir is required")
	}
	slo, err := NewSLOTracker(opts.Objectives, opts.FastBurn, opts.SlowBurn, opts.MinEvents)
	if err != nil {
		return nil, err
	}
	store, err := newBundleStore(opts.Dir, opts.DiskBudgetBytes)
	if err != nil {
		return nil, err
	}
	fr := &FlightRecorder{
		opts:       opts,
		slo:        slo,
		spike:      newSpikeDetector(opts.SpikeK, opts.SpikeSustain),
		deb:        newDebouncer(opts.Debounce),
		ring:       newTriggerRing(64),
		store:      store,
		breakerSig: make(chan Trigger, 4),
		histBuf:    make([]HistoryPoint, 120),
		breached:   make(map[string]bool),
		breachCtr:  make(map[string]*Counter),
		triggerCtr: make(map[string]*Counter),
		bundleCtr:  make(map[string]*Counter),
		stop:       make(chan struct{}),
	}
	for _, th := range opts.Histograms {
		if th.H == nil {
			continue
		}
		fr.hists = append(fr.hists, &histTrack{name: th.Name, h: th.H})
	}
	fr.lastStatus.Store(slo.Status())
	fr.registerMetrics()
	fr.wg.Add(1)
	go fr.evaluator()
	return fr, nil
}

// registerMetrics mirrors the tracker and bundle store into the registry.
// Gauge funcs read the evaluator's last snapshot, not the tracker, so a
// scrape never contends with the hot-path Observe mutex.
func (fr *FlightRecorder) registerMetrics() {
	reg := fr.opts.Registry
	if reg == nil {
		return
	}
	for _, o := range fr.opts.Objectives {
		name := o.Name
		for wi, spec := range sloWindowSpec {
			wi, window := wi, spec.name
			reg.GaugeFunc("ceps_slo_burn_rate",
				"Error-budget burn rate per objective and window (1.0 = sustainable).",
				func() float64 { return fr.statusField(name, wi, true) },
				Label{"objective", name}, Label{"window", window})
			reg.GaugeFunc("ceps_slo_good_ratio",
				"Good-event fraction per objective and window.",
				func() float64 { return fr.statusField(name, wi, false) },
				Label{"objective", name}, Label{"window", window})
		}
		fr.breachCtr[name] = reg.Counter("ceps_slo_breaches_total",
			"Burn-rate breach triggers per objective.", Label{"objective", name})
	}
	for _, kind := range TriggerKinds() {
		fr.triggerCtr[kind] = reg.Counter("ceps_flight_triggers_total",
			"Anomaly triggers fired (including debounced), by kind.", Label{"kind", kind})
		fr.bundleCtr[kind] = reg.Counter("ceps_flight_bundles_total",
			"Diagnostic bundles captured, by trigger kind.", Label{"trigger", kind})
	}
	reg.GaugeFunc("ceps_flight_bundle_bytes",
		"Total bytes of retained diagnostic bundles.",
		func() float64 { return float64(fr.store.totalBytes()) })
}

// statusField reads one objective/window burn rate (burn=true) or good
// ratio from the last evaluator snapshot.
func (fr *FlightRecorder) statusField(objective string, window int, burn bool) float64 {
	sts, _ := fr.lastStatus.Load().([]ObjectiveStatus)
	for _, st := range sts {
		if st.Name != objective || window >= len(st.Windows) {
			continue
		}
		if burn {
			return st.Windows[window].BurnRate
		}
		return st.Windows[window].GoodRatio
	}
	return 0
}

// ObserveQuery folds one finished request into the SLO windows and the
// latency-spike detector. This is the only hot-path entry point: one
// mutex acquisition in the tracker plus one in the detector.
func (fr *FlightRecorder) ObserveQuery(o QueryOutcome) {
	if fr == nil {
		return
	}
	fr.slo.Observe(o)
	if o.Shed {
		return
	}
	if fire, ev := fr.spike.observe(o.Latency); fire {
		fr.fire(Trigger{
			Kind:     TriggerLatencySpike,
			Detail:   fmt.Sprintf("latency %.1fms above ewma %.1fms + %g·mad", ev["latency_ms"], ev["ewma_ms"], ev["k"]),
			Evidence: ev,
			Time:     time.Now(),
		}, false)
	}
}

// NoteBreakerState is the resilience layer's state-change hook: a
// transition into "open" fires the breaker-open trigger. Called from a
// goroutine the breaker spawns, so it never runs under the breaker mutex.
func (fr *FlightRecorder) NoteBreakerState(from, to string) {
	if fr == nil || to != "open" {
		return
	}
	trig := Trigger{
		Kind:   TriggerBreakerOpen,
		Detail: fmt.Sprintf("circuit breaker %s -> %s", from, to),
		Time:   time.Now(),
	}
	select {
	case fr.breakerSig <- trig:
	default: // evaluator backed up; the open state persists and re-fires
	}
}

// TriggerManual captures a bundle right now, bypassing the debounce (the
// operator asked). It still respects the single-capture guard.
func (fr *FlightRecorder) TriggerManual(detail string) (BundleInfo, error) {
	if fr == nil {
		return BundleInfo{}, fmt.Errorf("flight: recorder not armed")
	}
	if detail == "" {
		detail = "operator-requested capture"
	}
	trig := Trigger{Kind: TriggerManual, Detail: detail, Time: time.Now()}
	if c := fr.triggerCtr[TriggerManual]; c != nil {
		c.Inc()
	}
	if !fr.capturing.CompareAndSwap(false, true) {
		rec := TriggerRecord{Trigger: trig, Suppressed: true, Error: "capture already in progress"}
		fr.ring.add(rec)
		return BundleInfo{}, fmt.Errorf("flight: capture already in progress")
	}
	defer fr.capturing.Store(false)
	return fr.capture(trig)
}

// fire routes one detector trigger through the debounce. async captures
// run on their own goroutine (a capture sleeps for the CPU-profile
// duration; detectors must not stall the evaluator or the hot path).
func (fr *FlightRecorder) fire(trig Trigger, sync bool) {
	if c := fr.triggerCtr[trig.Kind]; c != nil {
		c.Inc()
	}
	if !fr.deb.allow(trig.Time) {
		fr.ring.add(TriggerRecord{Trigger: trig, Suppressed: true})
		return
	}
	if !fr.capturing.CompareAndSwap(false, true) {
		fr.ring.add(TriggerRecord{Trigger: trig, Suppressed: true, Error: "capture already in progress"})
		return
	}
	run := func() {
		defer fr.capturing.Store(false)
		fr.capture(trig)
	}
	if sync {
		run()
		return
	}
	fr.wg.Add(1)
	go func() {
		defer fr.wg.Done()
		run()
	}()
}

// capture builds and writes one bundle, records the outcome in the
// trigger ring, and returns the bundle info. Caller holds the capturing
// flag.
func (fr *FlightRecorder) capture(trig Trigger) (BundleInfo, error) {
	info, entries := captureBundle(trig, trig.Time, fr.opts.CPUProfile, fr.opts.TraceCount,
		fr.opts.Registry, fr.opts.Traces, fr.opts.Stats)
	written, err := fr.store.write(info, entries)
	rec := TriggerRecord{Trigger: trig}
	if err != nil {
		rec.Error = err.Error()
		if fr.opts.Logf != nil {
			fr.opts.Logf("flight: capture failed: %v", err)
		}
	} else {
		rec.BundleID = written.ID
		if c := fr.bundleCtr[trig.Kind]; c != nil {
			c.Inc()
		}
	}
	fr.ring.add(rec)
	return written, err
}

// evaluator is the detector tick loop.
func (fr *FlightRecorder) evaluator() {
	defer fr.wg.Done()
	tick := time.NewTicker(fr.opts.EvalInterval)
	defer tick.Stop()
	for {
		select {
		case <-fr.stop:
			return
		case trig := <-fr.breakerSig:
			fr.fire(trig, false)
		case <-tick.C:
			fr.evalOnce()
		}
	}
}

// evalOnce runs every window-based detector once and appends a history
// point. Runs only on the evaluator goroutine (edge-trigger maps are
// unsynchronized by design).
func (fr *FlightRecorder) evalOnce() {
	now := time.Now()
	status := fr.slo.Status()
	fr.lastStatus.Store(status)

	// Burn-rate breach: edge-triggered per objective, so a breach that
	// persists across ticks fires once, not once per second.
	for _, st := range status {
		was := fr.breached[st.Name]
		fr.breached[st.Name] = st.Breached
		if st.Breached && !was {
			if c := fr.breachCtr[st.Name]; c != nil {
				c.Inc()
			}
			fr.fire(Trigger{
				Kind:      TriggerBurnRate,
				Objective: st.Name,
				Detail: fmt.Sprintf("%s burning budget at %.1fx (1m) / %.1fx (5m)",
					st.Name, st.FastBurn, st.SlowBurn),
				Evidence: map[string]float64{
					"fast_burn": st.FastBurn, "slow_burn": st.SlowBurn, "target": st.Target,
				},
				Time: now,
			}, false)
		}
	}

	// Shed surge: 1m shed fraction over the threshold.
	if ratio, samples, ok := fr.slo.WindowRatio("shed_rate", "1m"); ok {
		shedFrac := 1 - ratio
		surge := samples >= uint64(max(fr.opts.MinEvents, 1)) && shedFrac >= fr.opts.ShedSurgeRatio
		if surge && !fr.surging {
			fr.fire(Trigger{
				Kind:      TriggerShedSurge,
				Objective: "shed_rate",
				Detail:    fmt.Sprintf("%.0f%% of the last minute's requests shed", shedFrac*100),
				Evidence:  map[string]float64{"shed_fraction_1m": shedFrac, "samples_1m": float64(samples)},
				Time:      now,
			}, false)
		}
		fr.surging = surge
	}

	// Hit-rate collapse: the 1m cache hit ratio fell far below the 1h
	// baseline — a purge storm or working-set shift, not a cold start
	// (a cold 1h window can't be high enough to collapse from).
	if r1m, s1m, ok := fr.slo.WindowRatio("cache_hit_rate", "1m"); ok {
		r1h, s1h, _ := fr.slo.WindowRatio("cache_hit_rate", "1h")
		minN := uint64(max(fr.opts.MinEvents, 1))
		collapsed := s1m >= minN && s1h >= minN && r1m < r1h-fr.opts.HitCollapseDelta
		if collapsed && !fr.collapsed {
			fr.fire(Trigger{
				Kind:      TriggerHitRateCollapse,
				Objective: "cache_hit_rate",
				Detail:    fmt.Sprintf("cache hit ratio %.0f%% (1m) vs %.0f%% (1h baseline)", r1m*100, r1h*100),
				Evidence:  map[string]float64{"ratio_1m": r1m, "ratio_1h": r1h, "delta": fr.opts.HitCollapseDelta},
				Time:      now,
			}, false)
		}
		fr.collapsed = collapsed
	}

	fr.appendHistory(now, status)
}

// appendHistory samples one dashboard history point: per-objective 1m
// ratio/burn and per-tracked-histogram p50/p99/qps over the tick window.
func (fr *FlightRecorder) appendHistory(now time.Time, status []ObjectiveStatus) {
	series := make(map[string]float64, 2*len(status)+3*len(fr.hists))
	for _, st := range status {
		if len(st.Windows) > 0 {
			series[st.Name+"_ratio_1m"] = st.Windows[0].GoodRatio
			series[st.Name+"_burn_1m"] = st.Windows[0].BurnRate
		}
	}
	interval := fr.opts.EvalInterval.Seconds()
	fr.histMu.Lock()
	for _, ht := range fr.hists {
		cum, _, _ := ht.h.snapshot()
		delta := make([]uint64, len(cum))
		var n uint64
		for i := range cum {
			var prev uint64
			if ht.prevCum != nil {
				prev = ht.prevCum[i]
			}
			delta[i] = cum[i] - prev
		}
		if len(delta) > 0 {
			n = delta[len(delta)-1]
		}
		ht.prevCum = cum
		series[ht.name+"_qps"] = float64(n) / interval
		if n > 0 {
			series[ht.name+"_p50_ms"] = bucketQuantile(ht.h.upper, delta, 0.50) * 1e3
			series[ht.name+"_p99_ms"] = bucketQuantile(ht.h.upper, delta, 0.99) * 1e3
		}
	}
	pt := HistoryPoint{UnixMS: now.UnixMilli(), Series: series}
	i := (fr.histLo + fr.histN) % len(fr.histBuf)
	fr.histBuf[i] = pt
	if fr.histN < len(fr.histBuf) {
		fr.histN++
	} else {
		fr.histLo = (fr.histLo + 1) % len(fr.histBuf)
	}
	fr.histMu.Unlock()
}

// Status assembles the /debug/slo document. A nil recorder reports
// Armed=false with empty collections.
func (fr *FlightRecorder) Status() FlightStatus {
	if fr == nil {
		return FlightStatus{}
	}
	fr.histMu.Lock()
	hist := make([]HistoryPoint, fr.histN)
	for i := 0; i < fr.histN; i++ {
		hist[i] = fr.histBuf[(fr.histLo+i)%len(fr.histBuf)]
	}
	fr.histMu.Unlock()
	return FlightStatus{
		Armed:             true,
		FastBurnThreshold: fr.slo.fastBurn,
		SlowBurnThreshold: fr.slo.slowBurn,
		Objectives:        fr.slo.Status(),
		Triggers:          fr.ring.list(),
		Bundles:           fr.store.list(),
		History:           hist,
		BundleBytes:       fr.store.totalBytes(),
		BundleBudget:      fr.opts.DiskBudgetBytes,
		CaptureInProgress: fr.capturing.Load(),
	}
}

// Bundles lists the retained bundles, newest first.
func (fr *FlightRecorder) Bundles() []BundleInfo {
	if fr == nil {
		return nil
	}
	return fr.store.list()
}

// BundlePath resolves a bundle id to its archive path.
func (fr *FlightRecorder) BundlePath(id string) (string, bool) {
	if fr == nil {
		return "", false
	}
	return fr.store.open(id)
}

// Close stops the evaluator and waits for any in-flight capture. Safe on
// nil and safe to call twice.
func (fr *FlightRecorder) Close() {
	if fr == nil {
		return
	}
	fr.closeOnce.Do(func() { close(fr.stop) })
	fr.wg.Wait()
}
