package rwr

import (
	"context"
	"errors"
	"testing"
	"time"

	"ceps/internal/fault"
	"ceps/internal/linalg"
)

func TestScoresCtxRejectsBadQuery(t *testing.T) {
	g := randomGraph(t, 40, 30, 1)
	s, err := NewSolver(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{-1, g.N()} {
		if _, _, err := s.ScoresCtx(context.Background(), q); !errors.Is(err, fault.ErrBadQuery) {
			t.Errorf("q = %d: err = %v, want ErrBadQuery", q, err)
		}
	}
	if _, _, err := s.ScoresSetCtx(context.Background(), nil); !errors.Is(err, fault.ErrBadQuery) {
		t.Errorf("empty set: err = %v, want ErrBadQuery", err)
	}
}

func TestScoresCtxCanceled(t *testing.T) {
	g := randomGraph(t, 40, 30, 1)
	s, err := NewSolver(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = s.ScoresCtx(ctx, 0)
	if !errors.Is(err, fault.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
}

// TestScoresCtxDeadlineMidIteration arms a deadline far shorter than the
// requested sweep count needs and checks the walk aborts at a sweep
// boundary, promptly and with the right error identity.
func TestScoresCtxDeadlineMidIteration(t *testing.T) {
	g := randomGraph(t, 2000, 4000, 2)
	cfg := DefaultConfig()
	cfg.Iterations = 1 << 30 // would run for ages without the deadline
	s, err := NewSolver(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const deadline = 20 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, diag, err := s.ScoresCtx(ctx, 0)
	elapsed := time.Since(start)
	if !errors.Is(err, fault.ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded wrapping context.DeadlineExceeded", err)
	}
	if diag.Sweeps == 0 {
		t.Error("no sweeps ran before the deadline — graph too big for the test budget")
	}
	if elapsed > time.Second {
		t.Errorf("abort took %v; the deadline should cut within one sweep", elapsed)
	}
}

// TestScoresCtxDetectsDivergence feeds hand-built transition matrices whose
// spectral radius exceeds 1/c, which a real normalization can never produce,
// and checks both the growth guard and the non-finite probe fire.
func TestScoresCtxDetectsDivergence(t *testing.T) {
	mat := func(v float64) *linalg.CSR {
		m, err := linalg.NewCSR(2, 2, []linalg.Triple{
			{Row: 0, Col: 0, Val: v}, {Row: 1, Col: 1, Val: v},
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// Growth 2x per sweep: finite for hundreds of sweeps, so only the
	// residual-growth guard can catch it.
	s := &Solver{cfg: Config{C: 0.5, Iterations: 500}, n: 2, trans: mat(4)}
	_, diag, err := s.ScoresCtx(context.Background(), 0)
	if !errors.Is(err, fault.ErrDiverged) {
		t.Fatalf("growing walk: err = %v, want ErrDiverged", err)
	}
	if diag.Sweeps >= 500 {
		t.Errorf("divergence flagged only after all %d sweeps", diag.Sweeps)
	}
	// Overflow to +Inf within a few sweeps: the non-finite probe fires.
	s = &Solver{cfg: Config{C: 0.5, Iterations: 500}, n: 2, trans: mat(1e308)}
	_, _, err = s.ScoresCtx(context.Background(), 0)
	if !errors.Is(err, fault.ErrDiverged) {
		t.Fatalf("overflowing walk: err = %v, want ErrDiverged", err)
	}
}

func TestDiagnosticsConvergedVerdict(t *testing.T) {
	g := randomGraph(t, 60, 60, 3)
	cfg := DefaultConfig() // Tol = 0: fixed-m semantics
	s, err := NewSolver(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, diag, err := s.ScoresCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if diag.Sweeps != cfg.Iterations {
		t.Errorf("fixed-m run did %d sweeps, want all %d", diag.Sweeps, cfg.Iterations)
	}
	if !diag.Converged {
		t.Errorf("m = %d at c = 0.5 should converge; residual %g", cfg.Iterations, diag.Residual)
	}

	// Starved of sweeps the same walk must report the truncation.
	cfg.Iterations = 2
	s, err = NewSolver(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, diag, err = s.ScoresCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if diag.Converged {
		t.Errorf("2-sweep walk reported Converged (residual %g)", diag.Residual)
	}

	// With Tol set, the walk may stop early and must still report Converged.
	cfg.Iterations = 500
	cfg.Tol = 1e-6
	s, err = NewSolver(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, diag, err = s.ScoresCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if diag.Sweeps >= 500 || !diag.Converged {
		t.Errorf("Tol run: %d sweeps, converged %v; want early stop with Converged", diag.Sweeps, diag.Converged)
	}
}
