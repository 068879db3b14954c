package ceps_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"ceps"
)

// TestQueryDeadline50ms is the headline robustness acceptance check: on the
// paper-scale DBLP graph, a query armed with a 50ms deadline and an
// effectively unbounded iteration budget must come back in well under twice
// the deadline, with an error satisfying both the package sentinel and the
// stdlib identity.
func TestQueryDeadline50ms(t *testing.T) {
	ds, err := ceps.GenerateDBLP(ceps.DefaultDBLPConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ceps.DefaultConfig()
	cfg.RWR.Iterations = 1 << 30
	eng, err := ceps.NewEngine(ds.Graph, ceps.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	// Pay the one-time O(M) matrix normalization outside the deadline, as a
	// deadline-sensitive service would.
	if err := eng.Prepare(); err != nil {
		t.Fatal(err)
	}

	const deadline = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err = eng.Do(ctx, []int{ds.Repository[0][0], ds.Repository[1][0]})
	elapsed := time.Since(start)

	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded identity", err)
	}
	if !errors.Is(err, ceps.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ceps.ErrDeadlineExceeded identity", err)
	}
	if elapsed >= 2*deadline {
		t.Errorf("query returned after %v, want < %v", elapsed, 2*deadline)
	}
}

// TestQueryCancellation: a canceled context surfaces as ErrCanceled with
// the stdlib identity preserved.
func TestQueryCancellation(t *testing.T) {
	ds := smallDataset(t)
	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.Do(ctx, []int{ds.Repository[0][0], ds.Repository[1][0]})
	if !errors.Is(err, ceps.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
}

// TestEngineFallbackOnInjectedPartitionerFailure drives the graceful
// degradation ladder through the public API: fast mode whose partition
// state is gone still answers on the full graph and says so.
func TestEngineFallbackOnInjectedPartitionerFailure(t *testing.T) {
	ds := smallDataset(t)
	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()))
	pt, err := ceps.PrePartition(context.Background(), ds.Graph, 4, ceps.PartitionOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pt.Partition = nil // injected partitioner failure
	eng.SetPartitioned(pt)

	res, err := eng.Do(context.Background(), []int{ds.Repository[0][0], ds.Repository[1][0]})
	if err != nil {
		t.Fatalf("degraded query should succeed, got %v", err)
	}
	if res.Fallback == nil || res.Degraded == nil {
		t.Fatal("fallback not recorded on the public result")
	}
	if res.Degraded.Mode != "full_graph_fallback" {
		t.Errorf("Degraded = %+v, want full_graph_fallback", res.Degraded)
	}
	if res.Fallback.From != "fast-ceps" || res.Fallback.To != "full-ceps" {
		t.Errorf("fallback = %+v", res.Fallback)
	}
	if !res.Subgraph.Has(ds.Repository[0][0]) {
		t.Error("degraded answer lost a query node")
	}
}

// TestQueryBadInputTypedErrors: malformed queries and configs map onto the
// exported sentinels.
func TestQueryBadInputTypedErrors(t *testing.T) {
	ds := smallDataset(t)
	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()))
	if _, err := eng.Do(context.Background(), nil); !errors.Is(err, ceps.ErrBadQuery) {
		t.Errorf("empty query: err = %v, want ErrBadQuery", err)
	}
	if _, err := eng.Do(context.Background(), []int{-1}); !errors.Is(err, ceps.ErrBadQuery) {
		t.Errorf("negative id: err = %v, want ErrBadQuery", err)
	}
	bad := quickConfig()
	bad.Budget = 0
	if err := bad.Validate(); !errors.Is(err, ceps.ErrBadConfig) {
		t.Errorf("zero budget: err = %v, want ErrBadConfig", err)
	}
}

// TestResultDiagnosticsExposed: the convergence verdict reaches the public
// result type.
func TestResultDiagnosticsExposed(t *testing.T) {
	ds := smallDataset(t)
	eng := newEngine(t, ds.Graph, ceps.WithConfig(quickConfig()))
	res, err := eng.Do(context.Background(), []int{ds.Repository[0][0], ds.Repository[1][0]})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RWRDiagnostics) != 2 {
		t.Fatalf("got %d diagnostics, want 2", len(res.RWRDiagnostics))
	}
	if !res.Converged() {
		t.Errorf("default run should converge: %+v", res.RWRDiagnostics)
	}
	for _, d := range res.RWRDiagnostics {
		if d.Sweeps == 0 || d.Residual < 0 {
			t.Errorf("implausible diagnostics %+v", d)
		}
	}
}
