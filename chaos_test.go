package ceps_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"ceps"
	"ceps/internal/fault"
)

// arm installs an injector for the duration of the test and returns it
// for Fired assertions.
func arm(t *testing.T, injections ...fault.Injection) *fault.Injector {
	t.Helper()
	inj := fault.NewInjector(injections...)
	restore := fault.SetActiveInjector(inj)
	t.Cleanup(restore)
	return inj
}

// TestChaosInjectionPoints drives every fault-injection point through the
// public engine API and asserts the contract of the chaos harness: each
// fault surfaces as a typed error or a Degraded-marked answer — never a
// panic, a hang, or a silently wrong answer — and each point actually
// fired.
func TestChaosInjectionPoints(t *testing.T) {
	ds := smallDataset(t)
	q := []int{ds.Repository[0][0], ds.Repository[1][0]}

	t.Run("solve_delay", func(t *testing.T) {
		inj := arm(t, fault.Injection{Point: fault.InjectSolveDelay, Delay: 200 * time.Millisecond})
		eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()))
		// Build the transition matrix before the clock starts: on a loaded
		// host that build could eat the whole 20 ms, and a deadline that
		// has already fired when the solve asks for a pool slot loses the
		// slot-or-deadline race at random, so the delay would never fire.
		if err := eng.Prepare(); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, err := eng.Do(ctx, q)
		if !errors.Is(err, ceps.ErrDeadlineExceeded) {
			t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
		}
		if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
			t.Errorf("delayed solve ignored the deadline: returned after %v", elapsed)
		}
		if inj.Fired(fault.InjectSolveDelay) == 0 {
			t.Fatal("solve_delay never fired")
		}
	})

	t.Run("solve_error", func(t *testing.T) {
		inj := arm(t, fault.Injection{Point: fault.InjectSolveError})
		eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()))
		_, err := eng.Do(context.Background(), q)
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("err = %v, want ErrInjected identity", err)
		}
		if inj.Fired(fault.InjectSolveError) == 0 {
			t.Fatal("solve_error never fired")
		}
	})

	t.Run("solve_nan", func(t *testing.T) {
		// A NaN-poisoned start vector must trip the solver's non-finite
		// guard and surface as ErrDiverged — the "silent wrong answer"
		// defense this injection exists to prove.
		inj := arm(t, fault.Injection{Point: fault.InjectSolveNaN})
		eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()))
		res, err := eng.Do(context.Background(), q)
		if err == nil {
			t.Fatalf("NaN-poisoned solve returned an answer: %d nodes", res.Subgraph.Size())
		}
		if !errors.Is(err, ceps.ErrDiverged) {
			t.Fatalf("err = %v, want ErrDiverged", err)
		}
		if inj.Fired(fault.InjectSolveNaN) == 0 {
			t.Fatal("solve_nan never fired")
		}
	})

	t.Run("cache_fail", func(t *testing.T) {
		inj := arm(t, fault.Injection{Point: fault.InjectCacheFail})
		eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()), ceps.WithCache(8<<20), ceps.WithWorkers(2))
		_, err := eng.Do(context.Background(), q)
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("err = %v, want ErrInjected identity", err)
		}
		if inj.Fired(fault.InjectCacheFail) == 0 {
			t.Fatal("cache_fail never fired")
		}
	})

	t.Run("pool_starve", func(t *testing.T) {
		inj := arm(t, fault.Injection{Point: fault.InjectPoolStarve})
		eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()), ceps.WithCache(8<<20), ceps.WithWorkers(2))
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		_, err := eng.Do(ctx, q)
		if !errors.Is(err, ceps.ErrOverloaded) {
			t.Fatalf("err = %v, want ErrOverloaded", err)
		}
		if got := ceps.ShedReason(err); got != "pool_wait" {
			t.Errorf("ShedReason = %q, want pool_wait", got)
		}
		if !errors.Is(err, ceps.ErrDeadlineExceeded) {
			t.Errorf("pool starvation shed lost the deadline identity: %v", err)
		}
		if inj.Fired(fault.InjectPoolStarve) == 0 {
			t.Fatal("pool_starve never fired")
		}
	})

	t.Run("partition_degenerate", func(t *testing.T) {
		inj := arm(t, fault.Injection{Point: fault.InjectPartitionDegenerate})
		eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()))
		setPartitions(t, eng, 6)
		res, err := eng.Do(context.Background(), q)
		if err != nil {
			t.Fatalf("degenerate partition must fall back, not fail: %v", err)
		}
		if res.Degraded == nil || res.Degraded.Mode != "full_graph_fallback" {
			t.Fatalf("Degraded = %+v, want full_graph_fallback", res.Degraded)
		}
		if !res.Subgraph.Has(q[0]) || !res.Subgraph.Has(q[1]) {
			t.Error("fallback answer lost a query node")
		}
		if inj.Fired(fault.InjectPartitionDegenerate) == 0 {
			t.Fatal("partition_degenerate never fired")
		}
	})
}

// TestChaosInjectionPointListComplete pins the harness to its six points:
// adding an injection point without wiring it into the chaos suite (or
// removing a hook site) fails here.
func TestChaosInjectionPointListComplete(t *testing.T) {
	want := []string{"solve_delay", "solve_error", "solve_nan", "cache_fail", "pool_starve", "partition_degenerate"}
	points := fault.InjectionPoints()
	if len(points) != len(want) {
		t.Fatalf("harness has %d injection points, the chaos suite covers %d", len(points), len(want))
	}
	for i, p := range points {
		if p.String() != want[i] {
			t.Errorf("point %d = %q, want %q", i, p, want[i])
		}
	}
}

// TestChaosBreakerRecovery is the closed-loop breaker scenario: a
// Count-bounded burst of injected solve failures trips the breaker, the
// next answer is served degraded (relaxed tolerance) and marked, and once
// the fault stops the probe succeeds and the breaker closes — full
// recovery with no restart.
func TestChaosBreakerRecovery(t *testing.T) {
	ds := smallDataset(t)
	q := []int{ds.Repository[0][0], ds.Repository[1][0]}
	inj := arm(t, fault.Injection{Point: fault.InjectSolveError, Count: 1})

	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()), ceps.WithResilience(ceps.ResilienceOptions{
		MinSamples:     1,
		OpenFor:        50 * time.Millisecond,
		HalfOpenProbes: 1,
	}))

	// 1. The injected failure trips the breaker.
	if _, err := eng.Do(context.Background(), q); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if st := eng.BreakerState(); st != ceps.BreakerOpen {
		t.Fatalf("breaker = %v after failure, want open", st)
	}

	// 2. While open, answers are degraded and say so; the injection budget
	// is spent, so the relaxed solve itself succeeds.
	res, err := eng.Do(context.Background(), q)
	if err != nil {
		t.Fatalf("degraded query failed: %v", err)
	}
	if res.Degraded == nil || res.Degraded.Mode != "relaxed_tol" {
		t.Fatalf("Degraded = %+v, want relaxed_tol", res.Degraded)
	}
	if !res.Subgraph.Has(q[0]) || !res.Subgraph.Has(q[1]) {
		t.Error("degraded answer lost a query node")
	}

	// 3. After OpenFor, the next query becomes the half-open probe, runs
	// at full fidelity, succeeds, and closes the breaker.
	time.Sleep(60 * time.Millisecond)
	res, err = eng.Do(context.Background(), q)
	if err != nil {
		t.Fatalf("probe query failed: %v", err)
	}
	if res.Degraded != nil {
		t.Errorf("probe answer marked degraded: %+v", res.Degraded)
	}
	if st := eng.BreakerState(); st != ceps.BreakerClosed {
		t.Fatalf("breaker = %v after successful probe, want closed", st)
	}
	if inj.Fired(fault.InjectSolveError) != 1 {
		t.Errorf("solve_error fired %d times, want exactly the Count budget of 1", inj.Fired(fault.InjectSolveError))
	}

	st, ok := eng.ResilienceStats()
	if !ok {
		t.Fatal("resilience stats unavailable")
	}
	if st.ToOpen != 1 || st.ToHalfOpen != 1 || st.ToClosed != 1 {
		t.Errorf("transitions = open %d / half-open %d / closed %d, want 1/1/1", st.ToOpen, st.ToHalfOpen, st.ToClosed)
	}

	text := scrape(t, eng)
	for _, series := range []string{
		`ceps_degraded_total{mode="relaxed_tol"} 1`,
		`ceps_breaker_transitions_total{to="open"} 1`,
		`ceps_breaker_transitions_total{to="closed"} 1`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("exposition missing %q", series)
		}
	}
}

// TestChaosDegradedReplaceKeepsCertificate: on the breaker's degrade
// route ReplaceSubteam caps the walks' iterations but keeps the exact
// tolerance, so its top-N certificate still prunes the pool. The degraded
// answer is marked, is the head of the whole pool's ranking at the capped
// iterations bit for bit, and looks up far fewer walks than the pool has
// candidates (a loosened tolerance would void the certificate and look up
// every one).
func TestChaosDegradedReplaceKeepsCertificate(t *testing.T) {
	ds := smallDataset(t)
	team, departed := replaceTeam(ds)
	arm(t, fault.Injection{Point: fault.InjectSolveError, Count: 1})
	const degradedIters = 12
	cfg := ceps.DefaultConfig()
	eng := newEngine(t, ds.Graph, ceps.WithConfig(cfg), ceps.WithBipartite(ds.Papers), ceps.WithCache(8<<20),
		ceps.WithResilience(ceps.ResilienceOptions{MinSamples: 1, OpenFor: time.Minute, DegradedIterations: degradedIters}))
	defer eng.Close()
	if _, err := eng.Do(context.Background(), team[:2]); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if st := eng.BreakerState(); st != ceps.BreakerOpen {
		t.Fatalf("breaker = %v after failure, want open", st)
	}
	got, err := eng.ReplaceSubteam(context.Background(), team, ceps.WithDeparting(departed))
	if err != nil {
		t.Fatal(err)
	}
	if got.Degraded == nil || got.Degraded.Mode != "relaxed_tol" || !strings.Contains(got.Degraded.Reason, "tol=0,") {
		t.Fatalf("Degraded = %+v, want relaxed_tol at tol=0", got.Degraded)
	}

	capped := cfg
	capped.RWR.Iterations, capped.RWR.Tol = degradedIters, 0
	ref := newEngine(t, ds.Graph, ceps.WithConfig(capped), ceps.WithBipartite(ds.Papers))
	all, err := ref.ReplaceSubteam(context.Background(), team, ceps.WithDeparting(departed), ceps.WithReplaceTopN(-1))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Replacements) == 0 || len(got.Replacements) > len(all.Replacements) {
		t.Fatalf("degraded ranking has %d entries, the whole pool's %d", len(got.Replacements), len(all.Replacements))
	}
	compareReplacements(t, "degraded vs whole pool at capped iterations", got.Replacements, all.Replacements[:len(got.Replacements)])
	if lookups := got.Stages.CacheHits + got.Stages.CacheMisses; lookups*4 > got.PoolSize {
		t.Fatalf("Step 1 looked up %d walks for a pool of %d: the certificate did not run", lookups, got.PoolSize)
	}
}

// TestChaosNoDegradeFailsFast: with degraded answers disabled, an open
// breaker refuses queries with the typed unavailability error instead.
func TestChaosNoDegradeFailsFast(t *testing.T) {
	ds := smallDataset(t)
	q := []int{ds.Repository[0][0], ds.Repository[1][0]}
	arm(t, fault.Injection{Point: fault.InjectSolveError, Count: 1})

	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()), ceps.WithResilience(ceps.ResilienceOptions{
		MinSamples: 1,
		OpenFor:    time.Minute,
		NoDegrade:  true,
	}))
	if _, err := eng.Do(context.Background(), q); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	_, err := eng.Do(context.Background(), q)
	if !errors.Is(err, ceps.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
}
