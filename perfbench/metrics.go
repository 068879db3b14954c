package main

import (
	"math"
	"regexp"
)

// metricSpec names one metric of the result line. BENCHMARK.json lists the
// same names, units and directions; a unit test keeps the two in step.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics an untraced run prints, on every workload: what
// a caller of the engine sees.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"tail_ms", "ms", "lower"},
	{"throughput_qps", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"answer_quality", "ratio", "higher"},
}

// perLayer are the metrics a traced run prints, on every workload. A layer
// the workload does not exercise reads 0. Times are means per answered
// request unless the name says otherwise.
var perLayer = []metricSpec{
	{"engine.self_ms", "ms", "lower"},
	{"engine.queue_wait_ms", "ms", "lower"},
	{"resilience.shed_ratio", "ratio", "lower"},
	{"resilience.degraded_ratio", "ratio", "lower"},
	{"partition.kway_s", "s", "lower"},
	{"partition.union_ms", "ms", "lower"},
	{"partition.union_nodes", "count", "lower"},
	{"partition.fallback_ratio", "ratio", "lower"},
	{"rwr.solver_build_ms", "ms", "lower"},
	{"rwr.solve_ms", "ms", "lower"},
	{"rwr.sweeps_per_query", "count", "lower"},
	{"rwr.rows_per_s", "1/s", "higher"},
	{"linalg.bytes_per_sweep", "B", "lower"},
	{"linalg.flops_per_sweep", "flop", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.lookups", "count", "higher"},
	{"cache.evictions", "count", "lower"},
	{"cache.bytes_used_mb", "MB", "lower"},
	{"coalesce.panels", "count", "lower"},
	{"coalesce.mean_width", "count", "higher"},
	{"coalesce.wait_ms", "ms", "lower"},
	{"artifact.build_s", "s", "lower"},
	{"artifact.open_s", "s", "lower"},
	{"artifact.hit_ratio", "ratio", "higher"},
	{"artifact.lookups", "count", "higher"},
	{"artifact.bytes_mapped_mb", "MB", "lower"},
	{"score.combine_ms", "ms", "lower"},
	{"extract.ms", "ms", "lower"},
	{"extract.destinations", "count", "lower"},
	{"extract.paths", "count", "lower"},
	{"extract.subgraph_nodes", "count", "lower"},
	{"replace.pool_ms", "ms", "lower"},
	{"replace.pool_size", "count", "lower"},
	{"replace.score_ms", "ms", "lower"},
	{"dblp.generate_s", "s", "lower"},
	{"obs.trace_overhead_pct", "%", "lower"},
	{"loadgen.lag_p99_ms", "ms", "lower"},
	{"loadgen.offered_qps", "1/s", "higher"},
	{"loadgen.slo_miss_rate", "ratio", "lower"},
}

// units maps every metric name to its unit.
var units = func() map[string]string {
	u := map[string]string{}
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range specs {
			u[s.name] = s.unit
		}
	}
	return u
}()

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is the metrics object of a result line.
type metricSet map[string]metric

// put sets a metric, taking its unit from the spec tables. A value that is
// not finite (JSON has no NaN) reads as 0.
func (m metricSet) put(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("perfbench: metric " + name + " is not in the spec tables")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: u}
}

// result is the last line a run prints.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}
