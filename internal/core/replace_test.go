package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"ceps/internal/fault"
)

func replaceRunner(t *testing.T, seed int64) (*Runner, Config, []int) {
	t.Helper()
	ds := testDataset(t, seed)
	cfg := fastConfig()
	r, err := NewRunner(ds.Graph, cfg.RWR)
	if err != nil {
		t.Fatal(err)
	}
	return r, cfg, ds.Repository[0]
}

func TestReplaceSubteamBasic(t *testing.T) {
	r, cfg, repo := replaceRunner(t, 401)
	team := repo[:4]
	spec := ReplaceSpec{Team: team, Departing: team[1:2]}
	res, err := r.ReplaceSubteamCtx(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PoolStrategy != "two_hop" {
		t.Errorf("strategy %q, want two_hop", res.PoolStrategy)
	}
	if res.PoolSize == 0 || len(res.Replacements) == 0 {
		t.Fatalf("empty result: pool %d, ranked %d", res.PoolSize, len(res.Replacements))
	}
	if len(res.Replacements) > 10 {
		t.Errorf("default TopN is 10, got %d", len(res.Replacements))
	}
	if got, want := len(res.Remaining), 3; got != want {
		t.Errorf("remaining %d, want %d", got, want)
	}
	inTeam := map[int]bool{}
	for _, m := range team {
		inTeam[m] = true
	}
	for i, rep := range res.Replacements {
		if inTeam[rep.Node] {
			t.Errorf("team member %d ranked as its own replacement", rep.Node)
		}
		if rep.Score < 0 || rep.Score > 1 || math.IsNaN(rep.Score) {
			t.Errorf("score %v outside [0,1]", rep.Score)
		}
		if i > 0 && rep.Score > res.Replacements[i-1].Score {
			t.Errorf("ranking not sorted at %d", i)
		}
	}
	if res.Stages.Solve <= 0 || res.Stages.SolveKernel == "" {
		t.Errorf("missing solve stage attribution: %+v", res.Stages)
	}
	if res.Stages.SolveSweeps == 0 {
		t.Error("no sweeps recorded for the candidate panel")
	}
}

func TestReplaceSubteamValidation(t *testing.T) {
	r, cfg, repo := replaceRunner(t, 403)
	team := repo[:3]
	cases := []struct {
		name string
		spec ReplaceSpec
		want error
	}{
		{"no departing", ReplaceSpec{Team: team}, fault.ErrBadQuery},
		{"departing off-team", ReplaceSpec{Team: team, Departing: []int{team[0] + 1000}}, fault.ErrBadQuery},
		{"duplicate departing", ReplaceSpec{Team: team, Departing: []int{team[0], team[0]}}, fault.ErrBadQuery},
		{"everyone departs", ReplaceSpec{Team: team, Departing: team}, fault.ErrBadQuery},
		{"candidate out of range", ReplaceSpec{Team: team, Departing: team[:1], Candidates: []int{-1}}, fault.ErrBadQuery},
		{"negative weights", ReplaceSpec{Team: team, Departing: team[:1], Weights: ReplaceWeights{RWR: -1, Overlap: 1}}, fault.ErrBadConfig},
		{"zero weights", ReplaceSpec{Team: team, Departing: team[:1], Weights: ReplaceWeights{RWR: 0, Overlap: math.NaN()}}, fault.ErrBadConfig},
	}
	for _, tc := range cases {
		if _, err := r.ReplaceSubteamCtx(context.Background(), tc.spec, cfg); !errors.Is(err, tc.want) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestReplaceSubteamExplicitPool(t *testing.T) {
	r, cfg, repo := replaceRunner(t, 407)
	team := repo[:3]
	candidates := []int{repo[4], repo[5], team[0], repo[4]} // team member + dup filtered
	spec := ReplaceSpec{Team: team, Departing: team[:1], Candidates: candidates, TopN: -1}
	res, err := r.ReplaceSubteamCtx(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PoolStrategy != "explicit" {
		t.Errorf("strategy %q, want explicit", res.PoolStrategy)
	}
	if res.PoolSize != 2 || len(res.Replacements) != 2 {
		t.Fatalf("pool %d / ranked %d, want 2 / 2", res.PoolSize, len(res.Replacements))
	}
	for _, rep := range res.Replacements {
		if rep.Node != repo[4] && rep.Node != repo[5] {
			t.Errorf("unexpected candidate %d", rep.Node)
		}
	}
}

func TestReplaceSubteamDensestDeterministic(t *testing.T) {
	r, cfg, repo := replaceRunner(t, 409)
	spec := ReplaceSpec{Team: repo[:4], Departing: repo[:1], Pool: PoolDensest, TopN: -1}
	a, err := r.ReplaceSubteamCtx(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.PoolStrategy != "densest" {
		t.Errorf("strategy %q, want densest", a.PoolStrategy)
	}
	b, err := r.ReplaceSubteamCtx(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Replacements) != len(b.Replacements) {
		t.Fatalf("run lengths differ: %d vs %d", len(a.Replacements), len(b.Replacements))
	}
	for i := range a.Replacements {
		x, y := a.Replacements[i], b.Replacements[i]
		if x.Node != y.Node || math.Float64bits(x.Score) != math.Float64bits(y.Score) {
			t.Fatalf("rank %d differs between identical runs: %+v vs %+v", i, x, y)
		}
	}
	// The densest pool is a (usually strict) subset of the two-hop pool.
	two, err := r.ReplaceSubteamCtx(context.Background(),
		ReplaceSpec{Team: repo[:4], Departing: repo[:1], TopN: -1, MaxCandidates: -1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	twoSet := map[int]bool{}
	for _, rep := range two.Replacements {
		twoSet[rep.Node] = true
	}
	for _, rep := range a.Replacements {
		if !twoSet[rep.Node] {
			t.Errorf("densest candidate %d not in the two-hop neighborhood", rep.Node)
		}
	}
}

func TestReplaceSubteamBipartiteKernel(t *testing.T) {
	ds := testDataset(t, 411)
	cfg := fastConfig()
	r, err := NewRunner(ds.Graph, cfg.RWR)
	if err != nil {
		t.Fatal(err)
	}
	team := ds.Repository[0][:4]
	spec := ReplaceSpec{Team: team, Departing: team[:1], TopN: -1, Bipartite: ds.Papers}
	res, err := r.ReplaceSubteamCtx(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// On a co-authorship substrate some candidate near the team shares a
	// paper with the departed member; the kernel must surface it.
	var anyOverlap bool
	for _, rep := range res.Replacements {
		if rep.Overlap > 0 {
			anyOverlap = true
		}
		if math.IsNaN(rep.Overlap) || math.IsInf(rep.Overlap, 0) {
			t.Fatalf("non-finite overlap for candidate %d", rep.Node)
		}
	}
	if !anyOverlap {
		t.Error("no candidate shares a paper with the departed member — kernel wired wrong")
	}
	// Without the bipartite substrate the projected-graph kernel answers;
	// both paths must rank something and stay finite.
	spec.Bipartite = nil
	proj, err := r.ReplaceSubteamCtx(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(proj.Replacements) == 0 {
		t.Fatal("projected-graph kernel produced no ranking")
	}
}

func TestReplaceSubteamMaxCandidatesCap(t *testing.T) {
	r, cfg, repo := replaceRunner(t, 421)
	spec := ReplaceSpec{Team: repo[:3], Departing: repo[:1], MaxCandidates: 5, TopN: -1}
	res, err := r.ReplaceSubteamCtx(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PoolSize != 5 || len(res.Replacements) != 5 {
		t.Fatalf("pool %d / ranked %d, want capped at 5", res.PoolSize, len(res.Replacements))
	}
}

func TestReplaceSubteamCanceled(t *testing.T) {
	r, cfg, repo := replaceRunner(t, 423)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := r.ReplaceSubteamCtx(ctx, ReplaceSpec{Team: repo[:3], Departing: repo[:1]}, cfg)
	if !errors.Is(err, fault.ErrCanceled) {
		t.Fatalf("err %v, want ErrCanceled", err)
	}
}
