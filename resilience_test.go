package ceps_test

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"ceps"
	"ceps/internal/fault"
)

// TestResilienceUnloadedBitIdentical: the resilience layer is a pure
// gatekeeper — an enabled but unloaded engine must return answers
// bit-identical to a plain engine, cold and warm, because admitted
// queries run the exact same pipeline with the exact same config.
func TestResilienceUnloadedBitIdentical(t *testing.T) {
	ds := smallDataset(t)
	queries := []int{ds.Repository[0][0], ds.Repository[1][0], ds.Repository[1][1]}

	plain := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()), ceps.WithCache(8<<20), ceps.WithWorkers(2))
	guarded := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()), ceps.WithCache(8<<20), ceps.WithWorkers(2),
		ceps.WithResilience(ceps.ResilienceOptions{}))

	for round := 0; round < 2; round++ {
		want, err := plain.Do(context.Background(), queries)
		if err != nil {
			t.Fatal(err)
		}
		got, err := guarded.Do(context.Background(), queries)
		if err != nil {
			t.Fatal(err)
		}
		if got.Degraded != nil {
			t.Fatalf("round %d: unloaded resilience engine degraded the answer: %+v", round, got.Degraded)
		}
		if len(want.Subgraph.Nodes) != len(got.Subgraph.Nodes) {
			t.Fatalf("round %d: subgraph sizes differ: %d vs %d", round, len(want.Subgraph.Nodes), len(got.Subgraph.Nodes))
		}
		for i := range want.Subgraph.Nodes {
			if want.Subgraph.Nodes[i] != got.Subgraph.Nodes[i] {
				t.Fatalf("round %d: subgraph node %d differs", round, i)
			}
		}
		for i := range want.R {
			for j := range want.R[i] {
				if math.Float64bits(want.R[i][j]) != math.Float64bits(got.R[i][j]) {
					t.Fatalf("round %d: R[%d][%d] differs: %v vs %v", round, i, j, want.R[i][j], got.R[i][j])
				}
			}
		}
		for j := range want.Combined {
			if math.Float64bits(want.Combined[j]) != math.Float64bits(got.Combined[j]) {
				t.Fatalf("round %d: Combined[%d] differs: %v vs %v", round, j, want.Combined[j], got.Combined[j])
			}
		}
	}

	st, ok := guarded.ResilienceStats()
	if !ok {
		t.Fatal("resilience stats unavailable")
	}
	if st.Admitted != 2 || st.ShedQueueFull+st.ShedDeadlineBudget+st.ShedCoDel+st.ShedQueueWait != 0 {
		t.Errorf("unloaded stats = %+v, want 2 admitted and no sheds", st)
	}
}

// TestResilienceQueueFullShed drives the admission controller through the
// engine: with one slot, no queue, and the slot held by a delayed solve,
// the next query is shed immediately with the full typed contract —
// ErrOverloaded identity, a reason, a retry hint — and the shed is
// visible in stats and on /metrics.
func TestResilienceQueueFullShed(t *testing.T) {
	ds := smallDataset(t)
	inj := fault.NewInjector(fault.Injection{Point: fault.InjectSolveDelay, Delay: 300 * time.Millisecond})
	restore := fault.SetActiveInjector(inj)
	defer restore()

	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()), ceps.WithWorkers(1),
		ceps.WithResilience(ceps.ResilienceOptions{MaxConcurrent: 1, MaxQueue: -1}))

	holderDone := make(chan error, 1)
	go func() {
		_, err := eng.Do(context.Background(), []int{ds.Repository[0][0], ds.Repository[0][1]})
		holderDone <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for {
		st, _ := eng.ResilienceStats()
		if st.Running >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slot-holding query was never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	_, err := eng.Do(context.Background(), []int{ds.Repository[1][0], ds.Repository[1][1]})
	if !errors.Is(err, ceps.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if got := ceps.ShedReason(err); got != "queue_full" {
		t.Errorf("ShedReason = %q, want queue_full", got)
	}
	if _, ok := ceps.RetryAfterHint(err); !ok {
		t.Errorf("queue_full shed carries no retry hint: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("shed took %v; load shedding must be immediate", elapsed)
	}
	if err := <-holderDone; err != nil {
		t.Fatalf("slot-holding query failed: %v", err)
	}

	st, _ := eng.ResilienceStats()
	if st.ShedQueueFull < 1 {
		t.Errorf("stats = %+v, want at least one queue_full shed", st)
	}
	text := scrape(t, eng)
	if !strings.Contains(text, `ceps_shed_total{reason="queue_full"} 1`) {
		t.Errorf("exposition missing the queue_full shed:\n%s", grepSeries(text, "ceps_shed_total"))
	}
}

// TestResilienceReplaceQueueFullShed is TestResilienceQueueFullShed for
// ReplaceSubteam: an admission shed is the controller's to count, so the
// one shed request shows up once, under queue_full, and never again as an
// engine-side pool_wait shed.
func TestResilienceReplaceQueueFullShed(t *testing.T) {
	ds := smallDataset(t)
	inj := fault.NewInjector(fault.Injection{Point: fault.InjectSolveDelay, Delay: 300 * time.Millisecond})
	restore := fault.SetActiveInjector(inj)
	defer restore()

	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()), ceps.WithWorkers(1),
		ceps.WithResilience(ceps.ResilienceOptions{MaxConcurrent: 1, MaxQueue: -1}))

	holderDone := make(chan error, 1)
	go func() {
		_, err := eng.Do(context.Background(), []int{ds.Repository[0][0], ds.Repository[0][1]})
		holderDone <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for {
		st, _ := eng.ResilienceStats()
		if st.Running >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slot-holding query was never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	team, departed := replaceTeam(ds)
	_, err := eng.ReplaceSubteam(context.Background(), team, ceps.WithDeparting(departed))
	if !errors.Is(err, ceps.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if got := ceps.ShedReason(err); got != "queue_full" {
		t.Errorf("ShedReason = %q, want queue_full", got)
	}
	if err := <-holderDone; err != nil {
		t.Fatalf("slot-holding query failed: %v", err)
	}

	text := scrape(t, eng)
	for _, want := range []string{
		`ceps_shed_total{reason="queue_full"} 1`,
		`ceps_shed_total{reason="pool_wait"} 0`,
		`ceps_replace_total{pool="two_hop"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %s:\n%s", want, grepSeries(text, "ceps_shed_total"))
		}
	}
}

// TestPoolWaitShedNoLeak extends the solve-pool cancellation regression
// to the engine's accounting: a query whose deadline fires while it waits
// for a pool slot is a shed (typed overload, pool_wait reason, counted
// under ceps_shed_total), NOT an errored query, and the wait leaves no
// goroutine behind.
func TestPoolWaitShedNoLeak(t *testing.T) {
	ds := smallDataset(t)
	inj := fault.NewInjector(fault.Injection{Point: fault.InjectSolveDelay, Delay: 200 * time.Millisecond, Count: 1})
	restore := fault.SetActiveInjector(inj)
	defer restore()

	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()), ceps.WithCache(8<<20), ceps.WithWorkers(1))

	before := runtime.NumGoroutine()
	holderDone := make(chan error, 1)
	go func() {
		_, err := eng.Do(context.Background(), []int{ds.Repository[0][0], ds.Repository[0][1]})
		holderDone <- err
	}()
	// Wait until the holder is inside its delayed solve (the injection
	// budget of 1 is spent), so the victim's solve reaches the pool wait.
	deadline := time.Now().Add(2 * time.Second)
	for inj.Fired(fault.InjectSolveDelay) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slot-holding solve never started")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := eng.Do(ctx, []int{ds.Repository[1][0], ds.Repository[1][1]})
	if !errors.Is(err, ceps.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if got := ceps.ShedReason(err); got != "pool_wait" {
		t.Errorf("ShedReason = %q, want pool_wait", got)
	}
	if !errors.Is(err, ceps.ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("pool-wait shed lost its deadline identities: %v", err)
	}
	if err := <-holderDone; err != nil {
		t.Fatalf("slot-holding query failed: %v", err)
	}

	// Shed, not errored: the pool_wait shed counter moved, the deadline
	// error-kind counter did not.
	text := scrape(t, eng)
	if !strings.Contains(text, `ceps_shed_total{reason="pool_wait"} 1`) {
		t.Errorf("exposition missing the pool_wait shed:\n%s", grepSeries(text, "ceps_shed_total"))
	}
	if !strings.Contains(text, `ceps_query_errors_total{kind="deadline"} 0`) {
		t.Errorf("pool-wait shed was double-counted as a deadline error:\n%s", grepSeries(text, "ceps_query_errors_total"))
	}

	// No goroutine may outlive the shed wait.
	settle := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(settle) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// grepSeries filters an exposition to the lines of one metric family for
// readable failure messages.
func grepSeries(text, family string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, family) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
