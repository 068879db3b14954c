package ceps_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ceps"
	"ceps/internal/fault"
)

// TestEngineCoalescingBitIdentical is the tentpole golden test: under
// every normalization, concurrent queries answered through the coalescer
// — panels of mixed sources solved as one blocked call — are bit-for-bit
// the answers a cache-free engine produces, cold and warm.
func TestEngineCoalescingBitIdentical(t *testing.T) {
	ds := smallDataset(t)
	sets := [][]int{
		{ds.Repository[0][0], ds.Repository[0][1]},
		{ds.Repository[1][0], ds.Repository[1][1]},
		{ds.Repository[2][0], ds.Repository[2][1]},
		{ds.Repository[0][0], ds.Repository[1][0]},
	}
	norms := map[string]ceps.NormKind{
		"column":    ceps.NormColumn,
		"penalized": ceps.NormDegreePenalized,
		"symmetric": ceps.NormSymmetric,
	}
	for normName, norm := range norms {
		t.Run(normName, func(t *testing.T) {
			cfg := quickConfig()
			cfg.RWR.Norm = norm
			cold := newEngine(t, ds.Graph, ceps.WithConfig(cfg))
			coal := newEngine(t, ds.Graph, ceps.WithConfig(cfg),
				ceps.WithCache(8<<20), ceps.WithWorkers(2),
				ceps.WithCoalescing(ceps.CoalesceOptions{MaxWait: 5 * time.Millisecond}))

			want := make([]*ceps.Result, len(sets))
			for i, qs := range sets {
				var err error
				if want[i], err = cold.Do(context.Background(), qs); err != nil {
					t.Fatal(err)
				}
			}
			// Two rounds: cold (misses, possibly coalesced into shared
			// panels) and warm (all cache hits).
			for round := 0; round < 2; round++ {
				got := make([]*ceps.Result, len(sets))
				errs := make([]error, len(sets))
				var wg sync.WaitGroup
				for i, qs := range sets {
					wg.Add(1)
					go func(i int, qs []int) {
						defer wg.Done()
						got[i], errs[i] = coal.Do(context.Background(), qs)
					}(i, qs)
				}
				wg.Wait()
				for i := range sets {
					if errs[i] != nil {
						t.Fatalf("round %d set %d: %v", round, i, errs[i])
					}
					assertSameResult(t, want[i], got[i])
				}
			}
			st, ok := coal.CoalesceStats()
			if !ok {
				t.Fatal("coalesce stats should be available")
			}
			if st.Rows == 0 || st.Panels == 0 {
				t.Errorf("no panels solved: %+v", st)
			}
			if st.Aborts != 0 || st.Errors != 0 {
				t.Errorf("unexpected aborts/errors: %+v", st)
			}
		})
	}
}

// TestEngineCoalesceStagesReported: a query that rode a panel reports the
// panel width in its stage timings.
func TestEngineCoalesceStagesReported(t *testing.T) {
	ds := smallDataset(t)
	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()),
		ceps.WithCache(8<<20), ceps.WithCoalescing(ceps.CoalesceOptions{}))
	res, err := eng.Do(context.Background(), []int{ds.Repository[0][0], ds.Repository[0][1]})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages.CoalescePanelWidth < 1 {
		t.Errorf("CoalescePanelWidth = %d, want >= 1 for a coalesced miss", res.Stages.CoalescePanelWidth)
	}
}

// TestEngineCoalescingRequiresCache: the option is rejected without a
// cache — panels fan out through the cache's single-flight entries.
func TestEngineCoalescingRequiresCache(t *testing.T) {
	ds := smallDataset(t)
	_, err := ceps.NewEngine(ds.Graph, ceps.WithCoalescing(ceps.CoalesceOptions{}))
	if !errors.Is(err, ceps.ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
}

// TestEngineCoalesceShedClassification: a caller abandoning a forming
// panel (here: the pool is chaos-starved, so the panel can never launch)
// is classified as a coalesce_wait shed with both the overload and the
// deadline identities intact, and the engine stays serviceable afterward.
func TestEngineCoalesceShedClassification(t *testing.T) {
	ds := smallDataset(t)
	q := []int{ds.Repository[0][0], ds.Repository[0][1]}
	inj := arm(t, fault.Injection{Point: fault.InjectPoolStarve})
	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()),
		ceps.WithCache(8<<20), ceps.WithWorkers(2),
		ceps.WithCoalescing(ceps.CoalesceOptions{MaxWait: time.Minute}))

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := eng.Do(ctx, q)
	if !errors.Is(err, ceps.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if got := ceps.ShedReason(err); got != "coalesce_wait" {
		t.Errorf("ShedReason = %q, want coalesce_wait", got)
	}
	if !errors.Is(err, ceps.ErrDeadlineExceeded) {
		t.Errorf("coalesce shed lost the deadline identity: %v", err)
	}
	if inj.Fired(fault.InjectPoolStarve) == 0 {
		t.Fatal("pool_starve never fired")
	}
}

// TestEngineCoalesceHammerReconfigure races coalesced clients against
// Reconfigure: every answer must be bit-identical to a reference engine
// running one of the two configurations — a panel formed under the old
// generation may never leak its vectors into the new one (the cache's
// generation guard drops those stores). Run with -race.
func TestEngineCoalesceHammerReconfigure(t *testing.T) {
	ds := smallDataset(t)
	cfgA := quickConfig()
	cfgB := quickConfig()
	cfgB.RWR.Iterations = 30

	refA := newEngine(t, ds.Graph, ceps.WithConfig(cfgA))
	refB := newEngine(t, ds.Graph, ceps.WithConfig(cfgB))
	eng := newEngine(t, ds.Graph, ceps.WithConfig(cfgA),
		ceps.WithCache(8<<20), ceps.WithWorkers(2),
		ceps.WithCoalescing(ceps.CoalesceOptions{MaxWait: 2 * time.Millisecond}))

	sets := [][]int{
		{ds.Repository[0][0], ds.Repository[0][1]},
		{ds.Repository[1][0], ds.Repository[1][1]},
		{ds.Repository[2][0], ds.Repository[2][1]},
	}
	wantA := make([]*ceps.Result, len(sets))
	wantB := make([]*ceps.Result, len(sets))
	for i, qs := range sets {
		var err error
		if wantA[i], err = refA.Do(context.Background(), qs); err != nil {
			t.Fatal(err)
		}
		if wantB[i], err = refB.Do(context.Background(), qs); err != nil {
			t.Fatal(err)
		}
	}
	matchesEither := func(got *ceps.Result, i int) bool {
		return resultEquals(wantA[i], got) || resultEquals(wantB[i], got)
	}

	const clients = 8
	const perClient = 30
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, clients+1)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; n < perClient; n++ {
				i := (c + n) % len(sets)
				got, err := eng.Do(context.Background(), sets[i])
				if err != nil {
					errc <- err
					return
				}
				if !matchesEither(got, i) {
					errc <- errors.New("answer matches neither configuration: cross-generation contamination")
					return
				}
			}
		}(c)
	}
	go func() {
		defer close(stop)
		for n := 0; n < 20; n++ {
			cfg := cfgA
			if n%2 == 0 {
				cfg = cfgB
			}
			if err := eng.Reconfigure(cfg); err != nil {
				errc <- err
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	<-stop
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if st, ok := eng.CoalesceStats(); !ok || st.Errors != 0 {
		t.Errorf("panel solve errors under reconfigure hammer: %+v", st)
	}
}

// resultEquals is assertSameResult without the test failure — used where
// an answer may legitimately match one of several references.
func resultEquals(want, got *ceps.Result) bool {
	if len(want.Subgraph.Nodes) != len(got.Subgraph.Nodes) ||
		len(want.R) != len(got.R) || len(want.Combined) != len(got.Combined) {
		return false
	}
	for i := range want.Subgraph.Nodes {
		if want.Subgraph.Nodes[i] != got.Subgraph.Nodes[i] {
			return false
		}
	}
	for i := range want.R {
		for j := range want.R[i] {
			if want.R[i][j] != got.R[i][j] {
				return false
			}
		}
	}
	for j := range want.Combined {
		if want.Combined[j] != got.Combined[j] {
			return false
		}
	}
	return true
}

// TestEngineCoalesceAbandonedFlightNoWedge: clients that give up while
// their panel is forming must not wedge the engine — a later patient
// client gets a full answer.
func TestEngineCoalesceAbandonedFlightNoWedge(t *testing.T) {
	ds := smallDataset(t)
	q := []int{ds.Repository[0][0], ds.Repository[0][1]}
	inj := arm(t, fault.Injection{Point: fault.InjectPoolStarve, Count: 4})
	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()),
		ceps.WithCache(8<<20), ceps.WithWorkers(1),
		ceps.WithCoalescing(ceps.CoalesceOptions{MaxWait: time.Minute}))

	// Four impatient clients die while their panels are starved of slots.
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		_, err := eng.Do(ctx, q)
		cancel()
		if err == nil {
			t.Fatal("starved query should not succeed")
		}
	}
	if inj.Fired(fault.InjectPoolStarve) == 0 {
		t.Fatal("pool_starve never fired")
	}
	// The injector's count is exhausted; a patient client must succeed.
	res, err := eng.Do(context.Background(), q)
	if err != nil {
		t.Fatalf("engine wedged after abandoned panels: %v", err)
	}
	if !res.Subgraph.Has(q[0]) || !res.Subgraph.Has(q[1]) {
		t.Error("answer lost a query node")
	}
}
