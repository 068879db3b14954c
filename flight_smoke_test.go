package ceps_test

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"testing"
	"time"

	"ceps"
	"ceps/internal/fault"
	"ceps/internal/obs"
)

// readBundle opens a bundle archive and returns its members by name.
func readBundle(t *testing.T, path string) map[string][]byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("bundle is not gzip: %v", err)
	}
	members := map[string][]byte{}
	tr := tar.NewReader(gz)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("bundle is not a tar archive: %v", err)
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		members[hdr.Name] = data
	}
	return members
}

// TestFlightSmoke is the end-to-end anomaly-to-bundle proof: chaos-
// injected solve delays push every query past a tight latency objective,
// the burn-rate detector fires, and exactly one debounced diagnostic
// bundle lands on disk carrying CPU/heap/goroutine profiles, at least one
// kept trace, and a valid metrics snapshot.
func TestFlightSmoke(t *testing.T) {
	ds := smallDataset(t)
	q := []int{ds.Repository[0][0], ds.Repository[1][0]}

	arm(t, fault.Injection{Point: fault.InjectSolveDelay, Delay: 5 * time.Millisecond})

	dir := t.TempDir()
	eng := newEngine(t, ds.Graph,
		ceps.WithConfig(quickConfig()),
		ceps.WithTracing(ceps.TracingOptions{SampleRate: 1}),
		ceps.WithFlightRecorder(ceps.FlightRecorderOptions{
			Dir:        dir,
			CPUProfile: 100 * time.Millisecond, // real profile, test-sized window
			Objectives: []ceps.Objective{
				// Every 5ms-delayed query busts a 1ms bound, so the 1m/5m
				// burn rates hit 1/(1-0.99) = 100x as soon as the windows
				// pass the min-events guard (20 queries).
				{Name: "latency_p99", Kind: ceps.ObjectiveLatency, Target: 0.99, LatencyBound: time.Millisecond},
			},
			EvalInterval: 20 * time.Millisecond,
		}))
	defer eng.Close()

	for i := 0; i < 30; i++ {
		if _, err := eng.Do(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}

	// The evaluator ticks every 20ms; the capture itself burns the 100ms
	// CPU-profile window on its own goroutine.
	deadline := time.Now().Add(10 * time.Second)
	var bundles []ceps.BundleInfo
	for time.Now().Before(deadline) {
		if bundles = eng.FlightRecorder().Bundles(); len(bundles) > 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(bundles) == 0 {
		t.Fatalf("no bundle captured; status: %+v", eng.FlightRecorder().Status().Triggers)
	}

	// Keep the breach alive past several more evaluator ticks: the edge
	// trigger plus the global debounce must hold the count at one.
	for i := 0; i < 10; i++ {
		if _, err := eng.Do(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(200 * time.Millisecond)
	if got := eng.FlightRecorder().Bundles(); len(got) != 1 {
		t.Fatalf("bundles = %d, want exactly 1 (debounced)", len(got))
	}
	info := bundles[0]
	if info.Trigger != "burn_rate" {
		t.Errorf("bundle trigger = %q, want burn_rate", info.Trigger)
	}

	path, ok := eng.FlightRecorder().BundlePath(info.ID)
	if !ok {
		t.Fatalf("BundlePath(%q) not found", info.ID)
	}
	members := readBundle(t, path)
	for _, want := range []string{"index.json", "evidence.json", "cpu.pprof", "heap.pprof", "goroutine.pprof", "traces.json", "metrics.prom", "stats.json"} {
		if len(members[want]) == 0 {
			t.Errorf("bundle member %s missing or empty", want)
		}
	}
	var traces []ceps.Trace
	if err := json.Unmarshal(members["traces.json"], &traces); err != nil {
		t.Fatalf("traces.json: %v", err)
	}
	if len(traces) == 0 {
		t.Error("bundle carries no traces; want at least one kept trace")
	}
	if _, _, err := obs.ValidateExposition(bytes.NewReader(members["metrics.prom"])); err != nil {
		t.Errorf("bundle metrics snapshot is malformed: %v", err)
	}

	// The SLO surface agrees: the objective is breached and the trigger
	// ring records the capture (later repeats suppressed by the debounce).
	st := eng.FlightRecorder().Status()
	if !st.Armed {
		t.Error("status should report armed")
	}
	var captured int
	for _, rec := range st.Triggers {
		if rec.BundleID != "" {
			captured++
		}
	}
	if captured != 1 {
		t.Errorf("trigger ring records %d captures, want 1", captured)
	}
}

// flightOverheadReport is what TestFlightOverhead logs.
type flightOverheadReport struct {
	// Queries measured per arm.
	Queries int
	// Interquartile-mean latency per arm (robust against GC/scheduler
	// outliers).
	DisarmedNsPerQuery int64
	ArmedNsPerQuery    int64
	// OverheadPct = (armed/disarmed - 1) * 100; the acceptance floor is 1.
	OverheadPct float64
	// BitIdentical: Float64bits equality of every Combined score vector
	// between the armed and disarmed engines.
	BitIdentical bool
}

// TestFlightOverhead proves arming the recorder is free where it matters:
// armed latency within 1% of disarmed (query-interleaved interquartile
// means, so drift and outliers hit both arms equally) and
// Float64bits-identical answers. FLIGHT_OVERHEAD_MAX overrides the floor
// (in percent) for noisy hosts.
func TestFlightOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped with -short")
	}
	ds := smallDataset(t)
	sets := [][]int{
		{ds.Repository[0][0], ds.Repository[1][0]},
		{ds.Repository[0][1], ds.Repository[2][0]},
		{ds.Repository[1][1], ds.Repository[2][1]},
		{ds.Repository[0][0], ds.Repository[2][0]},
	}

	disarmed := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()), ceps.WithCache(16<<20))
	armed := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()), ceps.WithCache(16<<20),
		ceps.WithFlightRecorder(ceps.FlightRecorderOptions{
			Dir:        t.TempDir(),
			CPUProfile: -1, // captures would skew timing; none fire anyway
		}))
	defer armed.Close()

	// Warm both caches, proving bit identity on the way: recording only
	// reads finished results, so every score vector must match to the bit.
	bitIdentical := true
	for _, qs := range sets {
		rd, err := disarmed.Do(context.Background(), qs)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := armed.Do(context.Background(), qs)
		if err != nil {
			t.Fatal(err)
		}
		if len(rd.Combined) != len(ra.Combined) {
			t.Fatalf("Combined length mismatch: %d vs %d", len(rd.Combined), len(ra.Combined))
		}
		for i := range rd.Combined {
			if math.Float64bits(rd.Combined[i]) != math.Float64bits(ra.Combined[i]) {
				bitIdentical = false
				t.Errorf("set %v: Combined[%d] differs armed vs disarmed: %x vs %x",
					qs, i, math.Float64bits(rd.Combined[i]), math.Float64bits(ra.Combined[i]))
				break
			}
		}
	}

	timed := func(e *ceps.Engine, qs []int) time.Duration {
		start := time.Now()
		if _, err := e.Do(context.Background(), qs); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	// Untimed warmup lets the CPU governor, allocator, and branch
	// predictors settle before anything is measured.
	for i := 0; i < 100; i++ {
		for _, qs := range sets {
			timed(disarmed, qs)
			timed(armed, qs)
		}
	}
	// Measure back-to-back pairs, flipping the order every iteration:
	// both arms of a pair run under the same instantaneous CPU frequency,
	// GC phase, and scheduler state, so the per-pair delta isolates the
	// recorder's cost. The interquartile mean of the deltas then discards
	// outlier pairs (a GC pause inside one query) that would swing a mean.
	const iters = 600
	sampD := make([]time.Duration, 0, iters*len(sets))
	deltas := make([]time.Duration, 0, iters*len(sets))
	for i := 0; i < iters; i++ {
		for _, qs := range sets {
			var dD, dA time.Duration
			if i%2 == 0 {
				dD = timed(disarmed, qs)
				dA = timed(armed, qs)
			} else {
				dA = timed(armed, qs)
				dD = timed(disarmed, qs)
			}
			sampD = append(sampD, dD)
			deltas = append(deltas, dA-dD)
		}
	}
	iqMean := func(s []time.Duration) time.Duration {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		q := len(s) / 4
		var sum time.Duration
		for _, d := range s[q : len(s)-q] {
			sum += d
		}
		return sum / time.Duration(len(s)-2*q)
	}
	nsD := iqMean(sampD)
	nsA := nsD + iqMean(deltas)

	overheadPct := (float64(nsA)/float64(nsD) - 1) * 100
	rep := flightOverheadReport{
		Queries:            len(sampD),
		DisarmedNsPerQuery: nsD.Nanoseconds(),
		ArmedNsPerQuery:    nsA.Nanoseconds(),
		OverheadPct:        overheadPct,
		BitIdentical:       bitIdentical,
	}
	t.Logf("flight overhead: %+v", rep)

	maxPct := 1.0
	if env := os.Getenv("FLIGHT_OVERHEAD_MAX"); env != "" {
		v, err := strconv.ParseFloat(env, 64)
		if err != nil {
			t.Fatalf("FLIGHT_OVERHEAD_MAX=%q: %v", env, err)
		}
		maxPct = v
	}
	if overheadPct > maxPct {
		t.Errorf("armed overhead %.2f%% exceeds %.2f%% (disarmed %v, armed %v per query)",
			overheadPct, maxPct, nsD, nsA)
	}
}
