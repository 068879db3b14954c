package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"ceps"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		want float64
		n    int
		p    float64
		ok   bool
	}{
		{99, 1000, 99, true},   // rank 990, 10 beyond
		{99, 999, 98, true},    // p99 would leave 9
		{95, 5000, 95, true},   // capped at the workload's percentile
		{99.9, 20, 50, true},   // only the median leaves 10
		{99.9, 19, 100, false}, // nothing does: report the maximum
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.want, c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%g, %d) = %g, %v; want %g, %v", c.want, c.n, p, ok, c.p, c.ok)
		}
	}
	for n := 20; n <= 5000; n++ {
		if p, _ := tailPercentile(99.9, n); n-rank(p, n) < minBeyond {
			t.Fatalf("n=%d: p%g leaves %d samples beyond", n, p, n-rank(p, n))
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %g, want 2", m)
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	window := 10 * time.Second
	a := poissonSchedule(7, 30, window)
	b := poissonSchedule(7, 30, window)
	c := poissonSchedule(8, 30, window)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if slices.Equal(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 300 || len(a) != arrivals(30, window) {
		t.Fatalf("schedule has %d arrivals, want 300", len(a))
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) {
		t.Fatal("schedule is not in send order")
	}
	if a[0] < 0 || a[len(a)-1] >= window {
		t.Fatalf("schedule leaves the window: %v … %v", a[0], a[len(a)-1])
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range specs {
			if !nameRE.MatchString(s.name) {
				t.Errorf("invalid metric name %q", s.name)
			}
			if !unitRE.MatchString(s.unit) {
				t.Errorf("%s: invalid unit %q", s.name, s.unit)
			}
			if s.better != "lower" && s.better != "higher" {
				t.Errorf("%s: better = %q", s.name, s.better)
			}
			if seen[s.name] {
				t.Errorf("metric %q listed twice", s.name)
			}
			seen[s.name] = true
		}
	}
	for _, bad := range []string{"", "_x", "a b", "p50/ms", strings.Repeat("a", 65)} {
		if nameRE.MatchString(bad) {
			t.Errorf("name %q accepted", bad)
		}
	}
}

func TestSelfTimeSubtractsCoveredInterval(t *testing.T) {
	ms := time.Millisecond
	parent := span{ID: 1, Start: 0, End: 100 * ms}
	children := []span{
		{Parent: 1, Start: 10 * ms, End: 30 * ms},
		{Parent: 1, Start: 20 * ms, End: 50 * ms},   // overlaps the first: [10, 50] counts once
		{Parent: 1, Start: 90 * ms, End: 120 * ms},  // only [90, 100] lies inside the parent
		{Parent: 1, Start: 200 * ms, End: 300 * ms}, // a replay after the call covers nothing
	}
	if got := selfTime(parent, children); got != 50*ms {
		t.Fatalf("self time = %v, want 50ms", got)
	}
	if got := selfTime(parent, nil); got != 100*ms {
		t.Fatalf("self time without children = %v, want 100ms", got)
	}

	// The recorder's mean over request roots uses the same arithmetic on
	// stage spans laid end to end from the call's start.
	rec := newRecorder()
	t0 := rec.epoch
	rec.request(1, "engine.do", observation{start: t0, end: t0.Add(10 * ms),
		stages: []stage{{"solve", 3 * ms}, {"combine", 0}, {"extract", 4 * ms}}})
	rec.request(2, "engine.do", observation{start: t0, end: t0.Add(20 * ms),
		stages: []stage{{"solve", 15 * ms}}})
	if got := rec.meanRequestSelf(); got != 4*ms {
		t.Fatalf("mean request self time = %v, want 4ms", got)
	}
}

func TestRelaxedAnswersSkipTheIdentityCheck(t *testing.T) {
	fallback := &ceps.Fallback{From: "fast-ceps", To: "full-ceps"}
	cases := []struct {
		name string
		res  *ceps.Result
		want bool
	}{
		{"full fidelity", &ceps.Result{}, false},
		{"full-graph fallback", &ceps.Result{Fallback: fallback,
			Degraded: &ceps.Degradation{Mode: "full_graph_fallback"}}, false},
		{"relaxed", &ceps.Result{Degraded: &ceps.Degradation{Mode: "relaxed_tol"}}, true},
		// With the breaker open the engine overwrites the fallback's mode.
		{"relaxed fallback", &ceps.Result{Fallback: fallback,
			Degraded: &ceps.Degradation{Mode: "relaxed_tol"}}, true},
	}
	for _, c := range cases {
		if got := relaxed(c.res); got != c.want {
			t.Errorf("%s: relaxed = %v, want %v", c.name, got, c.want)
		}
		ob := cepsObservation(time.Time{}, time.Time{}, c.res, nil)
		if ob.degraded != c.want || ob.fallback != (c.res.Fallback != nil) {
			t.Errorf("%s: observation degraded %v fallback %v", c.name, ob.degraded, ob.fallback)
		}
	}
}

// TestResultShapeMatchesBenchmarkJSON pins the spec tables and the result
// line to BENCHMARK.json at the repository root.
func TestResultShapeMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	for _, tc := range []struct {
		table string
		got   []struct{ Name, Unit, Better string }
		want  []metricSpec
	}{{"end_to_end", bench.EndToEnd, endToEnd}, {"per_layer", bench.PerLayer, perLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", tc.table, len(tc.got), len(tc.want))
			continue
		}
		for i, m := range tc.got {
			if w := tc.want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", tc.table, i, m, w)
			}
		}
	}

	m := metricSet{}
	for _, s := range endToEnd {
		m.put(s.name, 1.5)
	}
	line, err := json.Marshal(result{Correct: true, Attempted: 3, Failed: 0, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal(line, &decoded); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range decoded {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("result keys %v, want %v", keys, want)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(decoded["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for _, s := range bench.EndToEnd {
		got, ok := metrics[s.Name]
		if !ok || got["unit"] != s.Unit || got["value"] != 1.5 || len(got) != 2 {
			t.Errorf("metric %s printed as %v", s.Name, got)
		}
	}
}
