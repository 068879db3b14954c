package ceps_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"ceps"
)

func tracedEngine(t testing.TB, g *ceps.Graph, opts ...ceps.Option) *ceps.Engine {
	t.Helper()
	opts = append([]ceps.Option{
		ceps.WithConfig(quickConfig()),
		ceps.WithTracing(ceps.TracingOptions{SampleRate: 1}),
	}, opts...)
	return newEngine(t, g, opts...)
}

// TestEngineTraceSpans is the acceptance check of the tracing feature: one
// fast-mode query must record a root span with the four pipeline children
// (partition, solve, combine, extract), and the solver's per-sweep events
// must account for exactly the sweeps reported in Stages.SolveSweeps.
func TestEngineTraceSpans(t *testing.T) {
	ds := smallDataset(t)
	eng := tracedEngine(t, ds.Graph)
	setPartitions(t, eng, 6)
	queries := []int{ds.Repository[0][0], ds.Repository[0][1]}

	res, err := eng.Do(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID == "" {
		t.Fatal("result carries no trace id with SampleRate 1")
	}
	tr, ok := eng.TraceStore().Get(res.TraceID)
	if !ok {
		t.Fatalf("trace %s not retained", res.TraceID)
	}
	if tr.SampledBy != "probability" && tr.SampledBy != "slow" {
		t.Errorf("sampled_by = %q", tr.SampledBy)
	}

	byName := map[string]int{}
	var rootID uint64
	for _, s := range tr.Spans {
		byName[s.Name]++
		if s.ParentID == 0 {
			rootID = s.SpanID
			if s.Name != "query" {
				t.Errorf("root span named %q, want query", s.Name)
			}
		}
	}
	children := 0
	for _, s := range tr.Spans {
		if s.ParentID == rootID {
			children++
		}
	}
	for _, want := range []string{"partition", "solve", "combine", "extract"} {
		if byName[want] == 0 {
			t.Errorf("missing %s span in %v", want, byName)
		}
	}
	if children < 4 {
		t.Errorf("root has %d children, want >= 4", children)
	}

	// Every sweep event carries an "advanced" count (1 for scalar, the
	// number of active columns for blocked); their sum is by construction
	// the Stages.SolveSweeps total.
	advanced := 0
	for _, s := range tr.Spans {
		if s.Name != "solve" {
			continue
		}
		if s.Attrs["kernel"] != res.Stages.SolveKernel {
			t.Errorf("solve span kernel = %v, stages say %q", s.Attrs["kernel"], res.Stages.SolveKernel)
		}
		if s.Attrs["sweeps"] != res.Stages.SolveSweeps {
			t.Errorf("solve span sweeps attr = %v, stages say %d", s.Attrs["sweeps"], res.Stages.SolveSweeps)
		}
		for _, ev := range s.Events {
			if ev.Name != "sweep" {
				continue
			}
			n, ok := ev.Attrs["advanced"].(int)
			if !ok {
				t.Fatalf("sweep event without advanced attr: %v", ev.Attrs)
			}
			advanced += n
		}
	}
	if advanced != res.Stages.SolveSweeps {
		t.Errorf("sweep events advanced %d columns, Stages.SolveSweeps = %d", advanced, res.Stages.SolveSweeps)
	}

	// The extract span logs one event per destination considered.
	for _, s := range tr.Spans {
		if s.Name == "extract" && len(s.Events) == 0 {
			t.Error("extract span recorded no destination events")
		}
	}
}

// TestTracingBitIdentical pins the "observability must not perturb the
// answer" contract: the same query on traced and untraced engines must
// produce Float64bits-identical scores.
func TestTracingBitIdentical(t *testing.T) {
	ds := smallDataset(t)
	queries := []int{ds.Repository[0][0], ds.Repository[1][0]}

	plain := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()))
	traced := tracedEngine(t, ds.Graph)

	want, err := plain.Do(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := traced.Do(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID == "" {
		t.Fatal("traced engine produced no trace id")
	}
	if len(got.Combined) != len(want.Combined) {
		t.Fatalf("combined length %d vs %d", len(got.Combined), len(want.Combined))
	}
	for j := range want.Combined {
		if math.Float64bits(got.Combined[j]) != math.Float64bits(want.Combined[j]) {
			t.Fatalf("combined[%d] differs: %x vs %x", j,
				math.Float64bits(got.Combined[j]), math.Float64bits(want.Combined[j]))
		}
	}
	for i := range want.R {
		for j := range want.R[i] {
			if math.Float64bits(got.R[i][j]) != math.Float64bits(want.R[i][j]) {
				t.Fatalf("R[%d][%d] differs", i, j)
			}
		}
	}
}

// TestTraceCancellation asserts that a deadline-exceeded query leaves a
// clean trace behind: root span with error status, retained by the
// always-keep-errors rule even at SampleRate 0, and no leaked open spans.
func TestTraceCancellation(t *testing.T) {
	ds := smallDataset(t)
	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()),
		ceps.WithTracing(ceps.TracingOptions{SampleRate: 0}))

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := eng.Do(ctx, []int{ds.Repository[0][0], ds.Repository[1][0]}); err == nil {
		t.Fatal("expired deadline did not fail the query")
	}
	traces := eng.TraceStore().List(0, 0)
	if len(traces) != 1 {
		t.Fatalf("store retained %d traces, want 1 (the failed one)", len(traces))
	}
	tr := traces[0]
	if tr.SampledBy != "error" || tr.Error == "" {
		t.Errorf("failed trace sampled_by=%q error=%q", tr.SampledBy, tr.Error)
	}
	for _, s := range tr.Spans {
		if s.ParentID == 0 && s.Error == "" {
			t.Error("root span has no error status")
		}
	}
	if n := eng.Tracer().OpenSpans(); n != 0 {
		t.Errorf("%d spans still open after the query returned", n)
	}
}

// TestTraceStoreRaceHammer drives concurrent traced batches against trace
// reads and reconfiguration purges; run under -race it proves the store
// and tracer are data-race free.
func TestTraceStoreRaceHammer(t *testing.T) {
	ds := smallDataset(t)
	eng := tracedEngine(t, ds.Graph, ceps.WithCache(8<<20))
	sets := [][]int{
		{ds.Repository[0][0], ds.Repository[1][0]},
		{ds.Repository[0][1], ds.Repository[2][0]},
		{ds.Repository[1][1], ds.Repository[3][0]},
	}
	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 4; i++ {
				_, errs := doSets(context.Background(), eng, sets, len(sets))
				for _, err := range errs {
					if err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	writers.Add(1)
	go func() { // reconfigurer: cache purges interleaved with queries
		defer writers.Done()
		cfg := quickConfig()
		for i := 0; i < 6; i++ {
			cfg.RWR.Iterations = 25 + i%2
			if err := eng.Reconfigure(cfg); err != nil {
				t.Error(err)
			}
		}
	}()
	readers.Add(1)
	go func() { // reader: list and re-fetch traces while queries run
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, tr := range eng.TraceStore().List(8, 0) {
				eng.TraceStore().Get(tr.TraceID)
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	if eng.TraceStore().Len() == 0 {
		t.Error("hammer retained no traces")
	}
}

// TestSlowQueryLogTraceFields asserts the operator contract that slow-log
// lines link to traces: the raw JSON must carry trace_id, solve_kernel and
// solve_sweeps fields matching the query's result.
func TestSlowQueryLogTraceFields(t *testing.T) {
	ds := smallDataset(t)
	var buf bytes.Buffer
	eng := tracedEngine(t, ds.Graph, ceps.WithSlowQueryLog(&buf, 0))
	res, err := eng.Do(context.Background(), []int{ds.Repository[0][0], ds.Repository[1][0]})
	if err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	for _, field := range []string{`"trace_id"`, `"solve_kernel"`, `"solve_sweeps"`} {
		if !strings.Contains(line, field) {
			t.Errorf("slow-log line missing %s: %s", field, line)
		}
	}
	var entry struct {
		TraceID     string `json:"trace_id"`
		SolveKernel string `json:"solve_kernel"`
		SolveSweeps int    `json:"solve_sweeps"`
	}
	if err := json.Unmarshal([]byte(strings.SplitN(line, "\n", 2)[0]), &entry); err != nil {
		t.Fatalf("bad slow-log JSON: %v\n%s", err, line)
	}
	if entry.TraceID != res.TraceID {
		t.Errorf("slow-log trace_id %q != result trace id %q", entry.TraceID, res.TraceID)
	}
	if entry.SolveKernel != res.Stages.SolveKernel || entry.SolveSweeps != res.Stages.SolveSweeps {
		t.Errorf("slow-log kernel/sweeps %q/%d != result %q/%d",
			entry.SolveKernel, entry.SolveSweeps, res.Stages.SolveKernel, res.Stages.SolveSweeps)
	}
}

// TestTracedMetricsExposition checks the new counter and runtime series
// appear in a traced engine's exposition and that it still validates.
func TestTracedMetricsExposition(t *testing.T) {
	ds := smallDataset(t)
	eng := tracedEngine(t, ds.Graph)
	if _, err := eng.Do(context.Background(), []int{ds.Repository[0][0], ds.Repository[1][0]}); err != nil {
		t.Fatal(err)
	}
	out := scrape(t, eng)
	for _, series := range []string{
		"ceps_traces_sampled_total", "ceps_traces_dropped_total",
		"go_goroutines", "go_heap_alloc_bytes", "process_uptime_seconds",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("exposition missing %s", series)
		}
	}
	if !strings.Contains(out, "ceps_traces_sampled_total 1") {
		t.Errorf("expected exactly one sampled trace in:\n%s", out)
	}
}

// TestTraceSolveSpanArtifactKernel: the solve span names the kernel Step 1
// actually ran, so an artifact-served Fast CePS query's span says
// "artifact" — the value Stages.SolveKernel reports — not the kernel a
// solve would have used.
func TestTraceSolveSpanArtifactKernel(t *testing.T) {
	ds := smallDataset(t)
	const parts = 4
	dir := buildArtifactDir(t, ds.Graph, quickConfig().RWR, parts, 1, 64<<20)
	eng := tracedEngine(t, ds.Graph, ceps.WithCache(8<<20), ceps.WithArtifactDir(dir))
	defer eng.Close()
	setPartitions(t, eng, parts)

	checked := 0
	for _, repo := range ds.Repository {
		if len(repo) < 2 {
			continue
		}
		res, err := eng.Do(context.Background(), repo[:2])
		if err != nil {
			t.Fatal(err)
		}
		if res.Stages.SolveKernel != "artifact" {
			continue
		}
		tr, ok := eng.TraceStore().Get(res.TraceID)
		if !ok {
			t.Fatalf("trace %s not retained", res.TraceID)
		}
		for _, s := range tr.Spans {
			if s.Name != "solve" {
				continue
			}
			checked++
			if s.Attrs["kernel"] != res.Stages.SolveKernel {
				t.Errorf("solve span kernel = %v, stages say %q", s.Attrs["kernel"], res.Stages.SolveKernel)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no query was served entirely from artifacts")
	}
}

// TestTraceReplaceCoalesceEvent: a coalesced ReplaceSubteam's solve span
// carries the same coalesce_wait event CePS solve spans emit, with the
// panel width the result reports.
func TestTraceReplaceCoalesceEvent(t *testing.T) {
	ds := smallDataset(t)
	eng := tracedEngine(t, ds.Graph, ceps.WithCache(8<<20), ceps.WithCoalescing(ceps.CoalesceOptions{}))
	team, departed := replaceTeam(ds)
	res, err := eng.ReplaceSubteam(context.Background(), team, ceps.WithDeparting(departed))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages.CoalescePanelWidth == 0 {
		t.Fatal("cold candidate panel did not go through the coalescer")
	}
	tr, ok := eng.TraceStore().Get(res.TraceID)
	if !ok {
		t.Fatalf("trace %s not retained", res.TraceID)
	}
	events := 0
	for _, s := range tr.Spans {
		if s.Name != "solve" {
			continue
		}
		for _, ev := range s.Events {
			if ev.Name != "coalesce_wait" {
				continue
			}
			events++
			if ev.Attrs["panel_width"] != res.Stages.CoalescePanelWidth {
				t.Errorf("coalesce_wait panel_width = %v, stages say %d", ev.Attrs["panel_width"], res.Stages.CoalescePanelWidth)
			}
		}
	}
	if events != 1 {
		t.Errorf("replace solve span carries %d coalesce_wait events, want 1", events)
	}
}
