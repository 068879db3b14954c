package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ceps"
)

const (
	// setupReps is how many times a run sets its workload up: setup_s is
	// their median, and the last set-up serves the timed window.
	setupReps = 3
	// setupTrace is the trace id of the first set-up; requests use their
	// index + 1, far below it.
	setupTrace = 1 << 40
	// maxInflight bounds the open loop's outstanding requests.
	maxInflight = 64
	// maxLagP99 is the generator lag beyond which an open-loop run is
	// invalid: the schedule it claims to have offered was not kept.
	maxLagP99 = 50 * time.Millisecond
	// rssEvery is how often the window's resident set is sampled.
	rssEvery = 20 * time.Millisecond
	// workdir holds the artifacts and span files a run writes, relative to
	// the checkout the benchmark runs from.
	workdir = ".bench_build/run"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// workload is one named traffic mix.
type workload struct {
	name string
	// clients > 0 runs a closed loop with that many clients; 0 runs an open
	// loop at rate requests per second.
	clients int
	rate    float64
	// sloMS is the open loop's fixed latency limit.
	sloMS float64
	// tailPct is the percentile tail_ms reports when the sample supports it.
	tailPct float64
	// root names the engine call a request's root span wraps.
	root  string
	setup func(ctx context.Context, o options, ph *phases) (*instance, error)
}

var workloads = map[string]*workload{
	warmCenterpiece.name: &warmCenterpiece,
	coldFast.name:        &coldFast,
	replaceSubteam.name:  &replaceSubteam,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// instance is one set-up workload: its engine, the request stream, and the
// checks that run after the timed window.
type instance struct {
	eng          *ceps.Engine
	nodes, edges int
	// send issues the window's request i through the engine.
	send func(ctx context.Context, i int) observation
	// check re-answers the kept sample with the plain pipeline, replays it
	// through the layers' public functions, and scores answer quality.
	check func(ctx context.Context, obs []observation, rp *replay) (checkResult, error)
	close func()
}

// checkResult is the verdict of an instance's after-window check.
type checkResult struct {
	checked int     // answers compared with the plain pipeline
	wrong   int     // answers the plain pipeline or a layer replay disagreed with
	quality float64 // answer_quality
}

// observation is what the harness keeps of one request.
type observation struct {
	idx                                int
	sched                              time.Time // open loop: when the request was due; zero in a closed loop
	start, end                         time.Time // bounds of the engine call
	err                                error
	degraded                           bool    // answered on the resilience layer's relaxed-tolerance path
	fallback                           bool    // Fast CePS answered on the full graph instead
	stages                             []stage // stage times the engine reported, in pipeline order
	sources                            int     // walk sources Step 1 resolved: Q, or the candidate pool
	sweeps                             int     // power-iteration sweeps the engine ran
	unionN                             int     // nodes of the Fast CePS partition union (0 elsewhere)
	poolSize                           int     // candidates a replacement query scored
	coalesceW                          int     // widest coalesced panel that served the request
	coalesceWt                         time.Duration
	destinations, paths, subgraphNodes int
}

// stage is one pipeline stage time the engine reported for a request.
type stage struct {
	name string
	d    time.Duration
}

// latency is the response time: from the due time in an open loop, from
// the call in a closed one.
func (o observation) latency() time.Duration {
	if !o.sched.IsZero() {
		return o.end.Sub(o.sched)
	}
	return o.end.Sub(o.start)
}

// stageTime is the request's time in the named stage (0 when absent).
func (o observation) stageTime(name string) time.Duration {
	for _, st := range o.stages {
		if st.name == name {
			return st.d
		}
	}
	return 0
}

// phases times the named steps of one set-up, each under a span.
type phases struct {
	rec   *recorder
	trace uint64
	root  uint64
	d     map[string]time.Duration
}

func (p *phases) run(name string, fn func() error) error {
	d, err := p.rec.timed(span{Trace: p.trace, Parent: p.root, Name: name}, fn)
	p.d[name] += d
	return err
}

// replay accumulates the layer replays of the checked sample.
type replay struct {
	rec       *recorder
	mu        sync.Mutex
	builds    int
	buildTime time.Duration
	solves    int
	solveTime time.Duration
	rows      float64 // matrix rows swept: sweeps × nodes
	flops     float64 // computed flops of one sweep, summed over panels
	bytes     float64 // computed compulsory bytes of one sweep, summed over panels
}

// engineStats is a snapshot of the engine's counters at a window boundary.
type engineStats struct {
	cache                ceps.CacheStats
	coal                 ceps.CoalesceStats
	art                  ceps.ArtifactStats
	queueSum, queueCount float64 // ceps_queue_residence_seconds
}

func snapshot(eng *ceps.Engine) engineStats {
	var s engineStats
	s.cache, _ = eng.CacheStats()
	s.coal, _ = eng.CoalesceStats()
	s.art, _ = eng.ArtifactStats()
	var buf bytes.Buffer
	if err := eng.Metrics().WriteText(&buf); err == nil {
		for _, line := range strings.Split(buf.String(), "\n") {
			name, val, ok := strings.Cut(line, " ")
			if !ok {
				continue
			}
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				continue
			}
			switch name {
			case "ceps_queue_residence_seconds_sum":
				s.queueSum = v
			case "ceps_queue_residence_seconds_count":
				s.queueCount = v
			}
		}
	}
	return s
}

// runInfo is the line a run prints before its result: what produced it.
type runInfo struct {
	Workload       string    `json:"workload"`
	Seed           int64     `json:"seed"`
	Seconds        int       `json:"seconds"`
	Trace          bool      `json:"trace"`
	Nodes          int       `json:"substrate_nodes"`
	Edges          int       `json:"substrate_edges"`
	GoVersion      string    `json:"go_version"`
	NProc          int       `json:"nproc"`
	GOMAXPROCS     int       `json:"gomaxprocs"`
	Commit         string    `json:"commit"`
	Loop           string    `json:"loop"`
	TailPercentile float64   `json:"tail_percentile"`
	LatencySamples int       `json:"latency_samples"`
	Checked        int       `json:"checked"`
	Wrong          int       `json:"wrong"`
	Valid          bool      `json:"valid"`
	SetupS         []float64 `json:"setup_s"`
	// Errors counts failed requests by shed reason, or "error" otherwise.
	Errors map[string]int `json:"errors,omitempty"`
}

// execute performs one run of w and prints its info and result lines.
func execute(ctx context.Context, w *workload, o options, stdout io.Writer) error {
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}

	var inst *instance
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	var setupS []float64
	var setupPeak float64
	phaseS := map[string][]float64{}
	for rep := 0; rep < setupReps; rep++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		ph := &phases{rec: rec, trace: setupTrace + uint64(rep), root: rec.id(), d: map[string]time.Duration{}}
		t0 := time.Now()
		var err error
		inst, err = w.setup(ctx, o, ph)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		rec.add(span{Trace: ph.trace, ID: ph.root, Name: "setup"}, t0, t1)
		if rep == 0 {
			// The first set-up runs in a fresh process, so the high-water
			// mark now is its peak; later ones would add their
			// predecessors' garbage.
			setupPeak = procStatusMB("VmHWM")
		}
		setupS = append(setupS, t1.Sub(t0).Seconds())
		for name, d := range ph.d {
			phaseS[name] = append(phaseS[name], d.Seconds())
		}
	}

	send := inst.send
	if rec != nil {
		// Even requests are traced and odd ones are not, so the two halves
		// share one window's cache state and load; their p50s give the
		// tracing overhead. A traced request's latency ends after its spans
		// are recorded, so it carries their cost.
		send = func(ctx context.Context, i int) observation {
			ob := inst.send(ctx, i)
			if i%2 == 0 {
				rec.request(uint64(i)+1, w.root, ob)
				ob.end = time.Now()
			}
			return ob
		}
	}
	window := time.Duration(o.seconds) * time.Second
	before := snapshot(inst.eng)
	rss := sampleRSS(rssEvery)
	var obs []observation
	var lags []time.Duration
	if w.clients > 0 {
		obs = closedLoop(ctx, w.clients, window, send)
	} else {
		obs, lags = openLoop(ctx, poissonSchedule(o.seed, w.rate, window), maxInflight, send)
	}
	after := snapshot(inst.eng)
	peakRSS := max(setupPeak, rss.stop())

	rp := &replay{rec: rec}
	ck, err := inst.check(ctx, obs, rp)
	if err != nil {
		return fmt.Errorf("check: %w", err)
	}
	s := summarize(w, obs, lags, window)

	m := metricSet{}
	if o.trace {
		layerMetrics(m, obs, s, before, after, rp, phaseS)
	} else {
		m.put("setup_s", median(setupS))
		m.put("p50_ms", percentile(s.okLat, 50))
		m.put("tail_ms", percentile(s.okLat, s.tailPct))
		m.put("throughput_qps", s.throughput)
		m.put("peak_rss_mb", peakRSS)
		m.put("answer_quality", ck.quality)
	}

	loop := fmt.Sprintf("closed, %d clients", w.clients)
	if w.clients == 0 {
		loop = fmt.Sprintf("open, %g/s Poisson, SLO %g ms", w.rate, w.sloMS)
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	info := runInfo{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Nodes: inst.nodes, Edges: inst.edges,
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: commit, Loop: loop, TailPercentile: s.tailPct, LatencySamples: len(s.okLat),
		Checked: ck.checked, Wrong: ck.wrong, Valid: s.valid, SetupS: setupS,
	}
	for _, ob := range obs {
		if ob.err != nil {
			if info.Errors == nil {
				info.Errors = map[string]int{}
			}
			reason := ceps.ShedReason(ob.err)
			if reason == "" {
				reason = "error"
			}
			info.Errors[reason]++
		}
	}
	if rec != nil {
		path := filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
		if err := rec.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	res := result{Correct: ck.wrong == 0 && s.valid, Attempted: len(obs), Failed: s.failed + ck.wrong, Metrics: m}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]runInfo{"run": info}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// summary is the end-to-end reading of one window.
type summary struct {
	okLat      []float64 // sorted latencies (ms) of full-fidelity answers
	failed     int
	shed       int
	degraded   int
	fallback   int
	sloMiss    int
	throughput float64 // full-fidelity answers per second of window
	tailPct    float64
	lagP99     float64 // ms
	offered    float64 // requests sent per second
	valid      bool
}

func summarize(w *workload, obs []observation, lags []time.Duration, window time.Duration) summary {
	var s summary
	var first, last time.Time
	for _, o := range obs {
		begin := o.start
		if !o.sched.IsZero() {
			begin = o.sched
		}
		if first.IsZero() || begin.Before(first) {
			first = begin
		}
		if o.end.After(last) {
			last = o.end
		}
		lat := ms(o.latency())
		switch {
		case o.err != nil:
			s.failed++
			if errors.Is(o.err, ceps.ErrOverloaded) {
				s.shed++
			}
		case o.degraded:
			s.degraded++
		default:
			s.okLat = append(s.okLat, lat)
		}
		if o.fallback {
			s.fallback++
		}
		if o.err != nil || o.degraded || (w.sloMS > 0 && lat > w.sloMS) {
			s.sloMiss++
		}
	}
	sort.Float64s(s.okLat)
	s.throughput = ratio(float64(len(s.okLat)), last.Sub(first).Seconds())
	s.tailPct, _ = tailPercentile(w.tailPct, len(s.okLat))
	lagMS := make([]float64, len(lags))
	for i, l := range lags {
		lagMS[i] = ms(l)
	}
	sort.Float64s(lagMS)
	s.lagP99 = percentile(lagMS, 99)
	s.offered = float64(len(obs)) / window.Seconds()
	s.valid = s.lagP99 <= ms(maxLagP99)
	return s
}

// layerMetrics fills m with the per-layer metrics of a traced window.
func layerMetrics(m metricSet, obs []observation, s summary, before, after engineStats, rp *replay, phaseS map[string][]float64) {
	var answered []observation
	for _, o := range obs {
		if o.err == nil {
			answered = append(answered, o)
		}
	}
	n := float64(len(answered))
	sum := func(f func(o observation) float64) float64 {
		var t float64
		for _, o := range answered {
			t += f(o)
		}
		return t
	}
	mean := func(f func(o observation) float64) float64 { return ratio(sum(f), n) }
	stageMS := func(name string) float64 {
		return mean(func(o observation) float64 { return ms(o.stageTime(name)) })
	}
	sent := float64(len(obs))

	m.put("engine.self_ms", ms(rp.rec.meanRequestSelf()))
	m.put("engine.queue_wait_ms", 1e3*ratio(after.queueSum-before.queueSum, after.queueCount-before.queueCount))
	m.put("resilience.shed_ratio", ratio(float64(s.shed), sent))
	m.put("resilience.degraded_ratio", ratio(float64(s.degraded), sent))

	m.put("partition.kway_s", median(phaseS["core.prepartition"]))
	m.put("partition.union_ms", stageMS("partition"))
	unions := sum(func(o observation) float64 { return float64(min(o.unionN, 1)) })
	m.put("partition.union_nodes", ratio(sum(func(o observation) float64 { return float64(o.unionN) }), unions))
	m.put("partition.fallback_ratio", ratio(float64(s.fallback), n))

	m.put("rwr.solver_build_ms", ratio(ms(rp.buildTime), float64(rp.builds)))
	m.put("rwr.solve_ms", stageMS("solve"))
	// Sweeps the engine ran: every fresh solve (a cache miss the artifact
	// tier did not answer) runs the configured m sweeps, and full-graph
	// fallbacks solve outside the cache. Result.Stages.SolveSweeps cannot
	// serve here: a cached vector reports the sweeps of its original solve.
	fresh := float64(after.cache.Misses-before.cache.Misses) - float64(after.art.Hits-before.art.Hits)
	sweeps := fresh*float64(ceps.DefaultConfig().RWR.Iterations) +
		sum(func(o observation) float64 {
			if o.fallback {
				return float64(o.sweeps)
			}
			return 0
		})
	m.put("rwr.sweeps_per_query", ratio(sweeps, sum(func(o observation) float64 { return float64(o.sources) })))
	m.put("rwr.rows_per_s", ratio(rp.rows, rp.solveTime.Seconds()))
	m.put("linalg.bytes_per_sweep", ratio(rp.bytes, float64(rp.solves)))
	m.put("linalg.flops_per_sweep", ratio(rp.flops, float64(rp.solves)))

	hits := float64(after.cache.Hits - before.cache.Hits)
	lookups := hits + float64(after.cache.Misses-before.cache.Misses)
	m.put("cache.hit_ratio", ratio(hits, lookups))
	m.put("cache.lookups", lookups)
	m.put("cache.evictions", float64(after.cache.Evictions-before.cache.Evictions))
	m.put("cache.bytes_used_mb", float64(after.cache.BytesUsed)/1e6)

	panels := float64(after.coal.Panels - before.coal.Panels)
	m.put("coalesce.panels", panels)
	m.put("coalesce.mean_width", ratio(float64(after.coal.Rows-before.coal.Rows), panels))
	coalesced := sum(func(o observation) float64 { return float64(min(o.coalesceW, 1)) })
	m.put("coalesce.wait_ms", ratio(sum(func(o observation) float64 { return ms(o.coalesceWt) }), coalesced))

	m.put("artifact.build_s", median(phaseS["artifact.build"]))
	m.put("artifact.open_s", median(phaseS["artifact.open"]))
	artHits := float64(after.art.Hits - before.art.Hits)
	artLookups := artHits + float64(after.art.Misses-before.art.Misses)
	m.put("artifact.hit_ratio", ratio(artHits, artLookups))
	m.put("artifact.lookups", artLookups)
	m.put("artifact.bytes_mapped_mb", float64(after.art.BytesMapped)/1e6)

	m.put("score.combine_ms", stageMS("combine"))
	m.put("extract.ms", stageMS("extract"))
	m.put("extract.destinations", mean(func(o observation) float64 { return float64(o.destinations) }))
	m.put("extract.paths", mean(func(o observation) float64 { return float64(o.paths) }))
	m.put("extract.subgraph_nodes", mean(func(o observation) float64 { return float64(o.subgraphNodes) }))

	m.put("replace.pool_ms", stageMS("replace_pool"))
	m.put("replace.pool_size", mean(func(o observation) float64 { return float64(o.poolSize) }))
	m.put("replace.score_ms", stageMS("replace_score"))

	m.put("dblp.generate_s", median(phaseS["dblp.generate"]))
	m.put("obs.trace_overhead_pct", traceOverheadPct(answered))
	m.put("loadgen.lag_p99_ms", s.lagP99)
	m.put("loadgen.offered_qps", s.offered)
	m.put("loadgen.slo_miss_rate", ratio(float64(s.sloMiss), sent))
}

// traceOverheadPct compares the p50 latency of the traced (even) requests
// with that of the untraced (odd) ones, in percent.
func traceOverheadPct(answered []observation) float64 {
	var traced, plain []float64
	for _, o := range answered {
		if o.idx%2 == 0 {
			traced = append(traced, ms(o.latency()))
		} else {
			plain = append(plain, ms(o.latency()))
		}
	}
	sort.Float64s(traced)
	sort.Float64s(plain)
	p := percentile(plain, 50)
	return 100 * ratio(percentile(traced, 50)-p, p)
}

// rssSampler tracks the largest resident set seen while the window runs.
// The kernel's high-water mark cannot serve here: it still holds the
// garbage of the repeated set-ups, which a run that set up once would not.
type rssSampler struct {
	done chan struct{}
	peak chan float64
}

// sampleRSS starts reading the resident set every interval until stop.
func sampleRSS(every time.Duration) *rssSampler {
	s := &rssSampler{done: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		peak := procStatusMB("VmRSS")
		for {
			select {
			case <-t.C:
				peak = max(peak, procStatusMB("VmRSS"))
			case <-s.done:
				s.peak <- max(peak, procStatusMB("VmRSS"))
				return
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the peak in MB.
func (s *rssSampler) stop() float64 {
	close(s.done)
	return <-s.peak
}

// procStatusMB reads a memory field of the process's status, VmRSS (the
// resident set) or VmHWM (its high-water mark), in MB. Where the kernel
// does not report it, it falls back to the memory the Go runtime obtained
// from the system.
func procStatusMB(field string) float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, field+":"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb * 1024 / 1e6
					}
				}
			}
		}
	}
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.Sys) / 1e6
}
