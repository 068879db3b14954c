package experiments

import (
	"strings"
	"testing"
)

// tinySetup keeps experiment tests quick: ~400 authors, few trials, fewer
// RWR iterations.
func tinySetup(t testing.TB) *Setup {
	t.Helper()
	s, err := NewSetup(0.1, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.Base.RWR.Iterations = 20
	return s
}

func TestNewSetupValidation(t *testing.T) {
	if _, err := NewSetup(0.1, 1, 0); err == nil {
		t.Error("zero trials should fail")
	}
}

func TestFig4ShapeAndMonotonicity(t *testing.T) {
	s := tinySetup(t)
	budgets := []int{5, 20, 60}
	pts, err := Fig4(s, []int{2, 3}, budgets)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("got %d points, want 6", len(pts))
	}
	// For each Q, NRatio must be non-decreasing in budget (more budget
	// captures at least as much goodness) and within [0, 1].
	for _, q := range []int{2, 3} {
		var prev float64
		for _, b := range budgets {
			for _, p := range pts {
				if p.Q == q && p.Budget == b {
					if p.NRatio < 0 || p.NRatio > 1+1e-9 || p.ERatio < 0 || p.ERatio > 1+1e-9 {
						t.Fatalf("ratios out of range: %+v", p)
					}
					if p.NRatio+1e-9 < prev {
						t.Fatalf("NRatio decreased with budget for Q=%d: %v < %v", q, p.NRatio, prev)
					}
					prev = p.NRatio
				}
			}
		}
	}
	var sb strings.Builder
	RenderFig4(&sb, pts)
	out := sb.String()
	if !strings.Contains(out, "Fig 4(a)") || !strings.Contains(out, "Fig 4(b)") || !strings.Contains(out, "Q=2") {
		t.Fatalf("render missing sections:\n%s", out)
	}
}

func TestFig5SweepRuns(t *testing.T) {
	s := tinySetup(t)
	pts, err := Fig5(s, []int{2}, []float64{0, 0.5, 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if p.NRatio <= 0 || p.NRatio > 1 {
			t.Fatalf("NRatio out of range: %+v", p)
		}
	}
	var sb strings.Builder
	RenderFig5(&sb, pts)
	if !strings.Contains(sb.String(), "alpha=0.5 vs alpha=0") {
		t.Fatalf("render missing headline delta:\n%s", sb.String())
	}
}

func TestFig6SweepRuns(t *testing.T) {
	s := tinySetup(t)
	pts, err := Fig6(s, []int{2}, []int{1, 2, 4}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if p.Partitions == 1 {
			if p.RelRatio != 1 {
				t.Fatalf("full run RelRatio = %v, want 1", p.RelRatio)
			}
		} else {
			if p.RelRatio <= 0 || p.RelRatio > 1.5 {
				t.Fatalf("RelRatio out of range: %+v", p)
			}
			if p.PartitionTime <= 0 {
				t.Fatalf("partition time missing: %+v", p)
			}
		}
		if p.Response <= 0 {
			t.Fatalf("response time missing: %+v", p)
		}
	}
	var sb strings.Builder
	RenderFig6(&sb, pts)
	if !strings.Contains(sb.String(), "Fig 6(a)") || !strings.Contains(sb.String(), "Fig 6(b)") {
		t.Fatalf("render missing panels:\n%s", sb.String())
	}
}

func TestFig2ComparisonRuns(t *testing.T) {
	s := tinySetup(t)
	r, err := Fig2(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	// CePS with an AND query is symmetric in query order.
	if r.CePSOrderOverlap != 1 {
		t.Fatalf("CePS order overlap = %v, want 1 (order-invariant)", r.CePSOrderOverlap)
	}
	if r.CurrentOrderOverlap < 0 || r.CurrentOrderOverlap > 1 {
		t.Fatalf("baseline overlap out of range: %v", r.CurrentOrderOverlap)
	}
	var sb strings.Builder
	RenderFig2(&sb, r)
	if !strings.Contains(sb.String(), "order-swap node overlap") {
		t.Fatalf("render incomplete:\n%s", sb.String())
	}
}

func TestSpeedupRuns(t *testing.T) {
	s := tinySetup(t)
	pts, err := Speedup(s, []int{2}, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("got %d points", len(pts))
	}
	p := pts[0]
	if p.FullTime <= 0 || p.FastTime <= 0 || p.Speedup <= 0 {
		t.Fatalf("timings missing: %+v", p)
	}
	if p.RelRatio <= 0 {
		t.Fatalf("RelRatio missing: %+v", p)
	}
	var sb strings.Builder
	RenderSpeedup(&sb, pts)
	if !strings.Contains(sb.String(), "speedup") {
		t.Fatalf("render incomplete:\n%s", sb.String())
	}
}

func TestSkewRuns(t *testing.T) {
	s := tinySetup(t)
	pts, err := Skew(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d samples", len(pts))
	}
	for _, p := range pts {
		if p.Gini <= 0 || p.Top10Pct <= 0 || p.Top10Pct > 1 {
			t.Fatalf("skew stats out of range: %+v", p)
		}
		if p.Top1Pct > p.Top10Pct {
			t.Fatalf("top1%% > top10%%: %+v", p)
		}
	}
	var sb strings.Builder
	RenderSkew(&sb, pts)
	if !strings.Contains(sb.String(), "mean") {
		t.Fatalf("render incomplete:\n%s", sb.String())
	}
}

func TestJaccard(t *testing.T) {
	a := map[int]bool{1: true, 2: true}
	b := map[int]bool{2: true, 3: true}
	if j := jaccard(a, b); j != 1.0/3 {
		t.Fatalf("jaccard = %v, want 1/3", j)
	}
	if j := jaccard(nil, nil); j != 1 {
		t.Fatalf("empty jaccard = %v, want 1", j)
	}
	if j := jaccard(a, a); j != 1 {
		t.Fatalf("self jaccard = %v, want 1", j)
	}
}

func TestReplaceEval(t *testing.T) {
	s := tinySetup(t)
	r, err := ReplaceEval(s, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Teams != 6 || r.TeamSize != 3 {
		t.Fatalf("trial accounting: %+v", r)
	}
	for _, a := range []ReplaceArm{r.Replace, r.Centerpiece} {
		if a.MRR <= 0 || a.MRR > 1 {
			t.Errorf("%s: MRR %v outside (0,1]", a.Name, a.MRR)
		}
		if a.Hits10 < a.Hits5 || a.Hits5 < a.Hits1 {
			t.Errorf("%s: hits not monotone: %+v", a.Name, a)
		}
		if a.MeanRank < 1 {
			t.Errorf("%s: mean rank %v below 1", a.Name, a.MeanRank)
		}
	}
	if r.MeanPoolSize <= 0 || r.CacheHits+r.CacheMisses == 0 {
		t.Errorf("panel bookkeeping empty: %+v", r)
	}
	var buf strings.Builder
	RenderReplaceEval(&buf, r)
	if !strings.Contains(buf.String(), "centerpiece") {
		t.Errorf("render output missing baseline arm:\n%s", buf.String())
	}
	if tbl := ReplaceEvalTable(r); len(tbl.Rows) != 2 {
		t.Errorf("table rows = %d, want 2", len(tbl.Rows))
	}
	if _, err := ReplaceEval(s, 0, 3); err == nil {
		t.Error("zero teams should fail")
	}
	if _, err := ReplaceEval(s, 1, 1); err == nil {
		t.Error("team size 1 should fail")
	}
}
