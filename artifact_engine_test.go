package ceps_test

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ceps"
	"ceps/internal/artifact"
	"ceps/internal/partition"
)

// buildArtifactDir precomputes artifacts for g under rc into a temp
// directory, the in-process equivalent of running cepspre. parts = 0
// builds the full-graph artifact only; otherwise the full graph plus one
// artifact per part (seed must match the engine's fast-mode seed). The
// byte budget sets the coverage: a union covers every source once its
// N² rows fit, its top sources by weighted degree otherwise.
func buildArtifactDir(t testing.TB, g *ceps.Graph, rc ceps.RWRConfig, parts int, seed int64, budget int64) string {
	t.Helper()
	dir := t.TempDir()
	bc := artifact.BuildConfig{RWR: rc, IncludeFull: true, ByteBudget: budget}
	if parts > 0 {
		pt, err := partition.KWayCtx(context.Background(), g, parts, partition.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		bc.Partition = pt
	}
	if _, err := artifact.Build(context.Background(), g, bc, dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// corruptOneArtifact flips the last byte of one .cpa file in dir.
func corruptOneArtifact(t testing.TB, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".cpa" {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatal("no artifact file to corrupt")
}

// panelBudget covers n-1 sources: eight bytes short of full coverage, so
// the artifact holds every node except the single lowest-weighted-degree
// one.
func panelBudget(g *ceps.Graph) int64 {
	n := int64(g.N())
	return 8 * n * (n - 1)
}

// TestArtifactGoldenAllNorms compares artifact-served engines against
// plain iterative ones on all three normalizations, at two coverages:
// "panel" leaves one source uncovered, "dense" covers every source. Every
// artifact row is the iterative solver's own m-sweep iterate, so the whole
// Result must be bit-identical either way.
func TestArtifactGoldenAllNorms(t *testing.T) {
	ds := smallDataset(t)
	g := ds.Graph
	queries := []int{ds.Repository[0][0], ds.Repository[1][0], ds.Repository[2][1]}
	norms := []struct {
		name string
		kind ceps.NormKind
	}{
		{"column", ceps.NormColumn},
		{"penalized", ceps.NormDegreePenalized},
		{"symmetric", ceps.NormSymmetric},
	}
	for _, nm := range norms {
		cfg := ceps.DefaultConfig()
		cfg.RWR.Norm = nm.kind
		ref, err := ceps.NewEngine(g, ceps.WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Do(context.Background(), queries)
		if err != nil {
			t.Fatal(err)
		}

		t.Run(nm.name+"/panel", func(t *testing.T) {
			dir := buildArtifactDir(t, g, cfg.RWR, 0, 1, panelBudget(g))
			eng := newEngine(t, g, ceps.WithConfig(cfg), ceps.WithCache(8<<20), ceps.WithArtifactDir(dir))
			defer eng.Close()
			got, err := eng.Do(context.Background(), queries)
			if err != nil {
				t.Fatal(err)
			}
			if got.Stages.ArtifactHits == 0 {
				t.Fatal("no artifact hits: the panel never served")
			}
			if !resultEquals(want, got) {
				t.Fatal("panel-served result is not bit-identical to the iterative one")
			}
		})

		t.Run(nm.name+"/dense", func(t *testing.T) {
			dir := buildArtifactDir(t, g, cfg.RWR, 0, 1, 64<<20)
			eng := newEngine(t, g, ceps.WithConfig(cfg), ceps.WithCache(8<<20), ceps.WithArtifactDir(dir))
			defer eng.Close()
			got, err := eng.Do(context.Background(), queries)
			if err != nil {
				t.Fatal(err)
			}
			if got.Stages.ArtifactHits != len(queries) {
				t.Fatalf("artifact hits = %d, want %d (the artifact covers every source)",
					got.Stages.ArtifactHits, len(queries))
			}
			if got.Stages.SolveKernel != "artifact" {
				t.Fatalf("kernel %q, want artifact", got.Stages.SolveKernel)
			}
			if !resultEquals(want, got) {
				t.Fatal("fully covered artifact's result is not bit-identical to the iterative one")
			}
		})
	}
}

// TestArtifactFastModeServing exercises the per-partition artifacts: a
// fast-mode engine whose single-part unions are precomputed (every source
// covered) answers cold queries out of the mmapped rows, bit-identically,
// at quickConfig's m = 25.
func TestArtifactFastModeServing(t *testing.T) {
	ds := smallDataset(t)
	g := ds.Graph
	cfg := quickConfig()
	const parts = 4
	dir := buildArtifactDir(t, g, cfg.RWR, parts, 1, 64<<20)

	ref := newEngine(t, g, ceps.WithConfig(cfg))
	setPartitions(t, ref, parts)
	eng := newEngine(t, g, ceps.WithConfig(cfg), ceps.WithCache(8<<20), ceps.WithArtifactDir(dir))
	defer eng.Close()
	setPartitions(t, eng, parts)

	if st, ok := eng.ArtifactStats(); !ok || st.Bound < parts {
		t.Fatalf("stats = %+v, want the full space and all %d single-part spaces bound", st, parts)
	}
	hits := 0
	for _, repo := range ds.Repository {
		if len(repo) < 2 {
			continue
		}
		queries := repo[:2]
		want, err := ref.Do(context.Background(), queries)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Do(context.Background(), queries)
		if err != nil {
			t.Fatal(err)
		}
		hits += got.Stages.ArtifactHits
		if !resultEquals(want, got) {
			t.Fatalf("queries %v: artifact-served fast-mode result is not bit-identical to the iterative one", queries)
		}
	}
	if hits == 0 {
		t.Fatal("no query was served from a per-partition artifact")
	}
}

// TestArtifactReconfigureInvalidation is the regression test for the tier
// invalidation bug class: after Reconfigure changes the RWR parameters,
// the tier must stop serving artifacts built for the old config (their
// fingerprints no longer match) and must re-probe — not stay dead — when
// the original config returns.
func TestArtifactReconfigureInvalidation(t *testing.T) {
	ds := smallDataset(t)
	g := ds.Graph
	cfgA := ceps.DefaultConfig()
	cfgB := cfgA
	cfgB.RWR.C = 0.6
	queries := []int{ds.Repository[0][0], ds.Repository[1][0]}
	dir := buildArtifactDir(t, g, cfgA.RWR, 0, 1, 64<<20)

	eng := newEngine(t, g, ceps.WithConfig(cfgA), ceps.WithCache(8<<20), ceps.WithArtifactDir(dir))
	defer eng.Close()
	res, err := eng.Do(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages.ArtifactHits != len(queries) {
		t.Fatalf("cold query under the built config: %d artifact hits, want %d", res.Stages.ArtifactHits, len(queries))
	}

	if err := eng.Reconfigure(cfgB); err != nil {
		t.Fatal(err)
	}
	res, err = eng.Do(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages.ArtifactHits != 0 {
		t.Fatalf("reconfigured engine took %d artifact hits from stale artifacts", res.Stages.ArtifactHits)
	}
	want, err := newEngine(t, g, ceps.WithConfig(cfgB)).Do(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if !resultEquals(want, res) {
		t.Fatal("post-reconfigure answer differs from a plain engine under the new config")
	}

	if err := eng.Reconfigure(cfgA); err != nil {
		t.Fatal(err)
	}
	res, err = eng.Do(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages.ArtifactHits != len(queries) {
		t.Fatalf("tier did not re-probe when the built config returned: %d hits", res.Stages.ArtifactHits)
	}
	st, ok := eng.ArtifactStats()
	if !ok {
		t.Fatal("artifact stats should be available")
	}
	if st.Rebinds < 3 || st.Generation < 3 {
		t.Fatalf("stats = %+v, want a rebind per construction and per Reconfigure", st)
	}
}

// TestArtifactReconfigureRaceHammer races artifact-served queries against
// Reconfigure. Artifacts are panel class (bit-identical to iterative
// rows), so every answer must exactly match a reference engine running one
// of the two configurations — a stale binding serving the wrong config
// would show up as an answer matching neither. Run with -race.
func TestArtifactReconfigureRaceHammer(t *testing.T) {
	ds := smallDataset(t)
	cfgA := quickConfig()
	cfgB := quickConfig()
	cfgB.RWR.Iterations = 30
	dir := buildArtifactDir(t, ds.Graph, cfgA.RWR, 0, 1, panelBudget(ds.Graph))

	refA := newEngine(t, ds.Graph, ceps.WithConfig(cfgA))
	refB := newEngine(t, ds.Graph, ceps.WithConfig(cfgB))
	eng := newEngine(t, ds.Graph, ceps.WithConfig(cfgA),
		ceps.WithCache(8<<20), ceps.WithWorkers(2), ceps.WithArtifactDir(dir))
	defer eng.Close()

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

	const clients = 8
	const perClient = 30
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
				if !resultEquals(wantA[i], got) && !resultEquals(wantB[i], got) {
					errc <- errors.New("answer matches neither configuration: stale artifact binding leaked across Reconfigure")
					return
				}
			}
		}(c)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
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
	<-done
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

// TestReplaceCertifiedOnArtifactEngine: an engine whose full-graph
// artifact covers every source answers ReplaceSubteam bit for bit like a
// plain engine, with the top-N certificate on — Step 1 looks up the few
// member and surviving candidate walks, not the whole pool.
func TestReplaceCertifiedOnArtifactEngine(t *testing.T) {
	ds := smallDataset(t)
	team, departed := replaceTeam(ds)
	for _, tc := range []struct {
		name string
		cfg  ceps.Config
	}{{"default", ceps.DefaultConfig()}, {"m25", quickConfig()}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := buildArtifactDir(t, ds.Graph, tc.cfg.RWR, 0, 1, 64<<20)
			ref := newEngine(t, ds.Graph, ceps.WithConfig(tc.cfg), ceps.WithBipartite(ds.Papers))
			want, err := ref.ReplaceSubteam(context.Background(), team, ceps.WithDeparting(departed))
			if err != nil {
				t.Fatal(err)
			}
			eng := newEngine(t, ds.Graph, ceps.WithConfig(tc.cfg), ceps.WithBipartite(ds.Papers),
				ceps.WithCache(8<<20), ceps.WithArtifactDir(dir))
			defer eng.Close()
			got, err := eng.ReplaceSubteam(context.Background(), team, ceps.WithDeparting(departed))
			if err != nil {
				t.Fatal(err)
			}
			compareReplacements(t, "artifact engine vs plain", want.Replacements, got.Replacements)
			lookups := got.Stages.CacheHits + got.Stages.CacheMisses
			if got.Stages.ArtifactHits == 0 || got.Stages.ArtifactHits != got.Stages.CacheMisses {
				t.Fatalf("stages = %+v, want every cold lookup served by the artifact", got.Stages)
			}
			if lookups*4 > got.PoolSize {
				t.Fatalf("Step 1 looked up %d walks for a pool of %d: the certificate did not run", lookups, got.PoolSize)
			}
		})
	}
}

// denseClassDir rewrites every artifact in dir the way an older build's
// dense-class directory looks: class word 1 (checksum recomputed, so the
// class is the only thing wrong) and "dense" in the index.
func denseClassDir(t testing.TB, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case filepath.Ext(e.Name()) == ".cpa":
			binary.LittleEndian.PutUint32(data[12:], 1)
			h := fnv.New64a()
			h.Write(data[:64])
			h.Write(data[72:])
			binary.LittleEndian.PutUint64(data[64:], h.Sum64())
		case e.Name() == artifact.IndexFile:
			data = []byte(strings.ReplaceAll(string(data), `"class": "panel"`, `"class": "dense"`))
		default:
			continue
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestArtifactDirRejectsDenseClass: a directory of dense-class artifacts
// from an older build (closed-form rows, not m-sweep iterates) must fail
// engine construction with a message that says to rebuild it, rather than
// serve rows that would change answers.
func TestArtifactDirRejectsDenseClass(t *testing.T) {
	ds := smallDataset(t)
	cfg := quickConfig()
	dir := buildArtifactDir(t, ds.Graph, cfg.RWR, 0, 1, 64<<20)
	denseClassDir(t, dir)
	_, err := ceps.NewEngine(ds.Graph, ceps.WithConfig(cfg), ceps.WithArtifactDir(dir))
	if !errors.Is(err, ceps.ErrBadConfig) || !strings.Contains(err.Error(), "cepspre") {
		t.Fatalf("NewEngine on a dense-class artifact dir: %v, want ErrBadConfig saying to rebuild with cepspre", err)
	}
}

// logBuffer collects the standard logger's output, which the engine's
// artifact tier writes its bind-pass notes to.
type logBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) count(substr string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Count(b.buf.String(), substr)
}

// captureLog redirects the standard logger into a buffer until the test
// ends.
func captureLog(t *testing.T) *logBuffer {
	b := &logBuffer{}
	out, flags := log.Writer(), log.Flags()
	log.SetOutput(b)
	t.Cleanup(func() {
		log.SetOutput(out)
		log.SetFlags(flags)
	})
	return b
}

// TestArtifactBypassLogOnlyOnMismatch: an engine opened on a part-only
// directory and given its partition afterwards (how cepspre's default
// build and `ceps -artifacts DIR -partitions N` meet) binds the parts
// without first reporting the directory as a mismatch. A directory built
// for another config still logs the bypass once per binding generation.
func TestArtifactBypassLogOnlyOnMismatch(t *testing.T) {
	ds := smallDataset(t)
	g := ds.Graph
	cfg := quickConfig()
	const parts = 4
	const bypass = "tier bypassed"
	logs := captureLog(t)
	pt, err := ceps.PrePartition(context.Background(), g, parts, ceps.PartitionOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	build := func(rc ceps.RWRConfig) string {
		dir := t.TempDir()
		if _, err := artifact.Build(context.Background(), g, artifact.BuildConfig{RWR: rc, Partition: pt.Partition}, dir); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	eng := newEngine(t, g, ceps.WithConfig(cfg), ceps.WithCache(8<<20), ceps.WithArtifactDir(build(cfg.RWR)))
	defer eng.Close()
	eng.SetPartitioned(pt)
	if n := logs.count(bypass); n != 0 {
		t.Fatalf("a matching part-only directory logged %d bypass lines", n)
	}
	res, err := eng.Do(context.Background(), []int{ds.Repository[0][0]})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages.ArtifactHits != 1 {
		t.Fatalf("stages = %+v, want the single-part query served by its part's artifact", res.Stages)
	}

	other := cfg
	other.RWR.C = 0.7
	mis := newEngine(t, g, ceps.WithConfig(cfg), ceps.WithArtifactDir(build(other.RWR)))
	defer mis.Close()
	mis.SetPartitioned(pt)
	if n := logs.count(bypass); n != 1 {
		t.Fatalf("a mismatched directory logged %d bypass lines once partitioned, want 1", n)
	}
	third := cfg
	third.RWR.C = 0.6
	if err := mis.Reconfigure(third); err != nil {
		t.Fatal(err)
	}
	if n := logs.count(bypass); n != 2 {
		t.Fatalf("%d bypass lines after a rebind, want one more for the new generation", n)
	}
}

// TestArtifactDirRejectsDamage: an artifact directory with a corrupted
// file must reject engine construction outright — serving would silently
// fall back, hiding operational damage.
func TestArtifactDirRejectsDamage(t *testing.T) {
	ds := smallDataset(t)
	cfg := quickConfig()
	dir := buildArtifactDir(t, ds.Graph, cfg.RWR, 0, 1, panelBudget(ds.Graph))
	corruptOneArtifact(t, dir)
	_, err := ceps.NewEngine(ds.Graph, ceps.WithConfig(cfg), ceps.WithArtifactDir(dir))
	if !errors.Is(err, ceps.ErrBadConfig) {
		t.Fatalf("NewEngine on a damaged artifact dir: %v, want ErrBadConfig", err)
	}
}

// TestArtifactMismatchBypasses: artifacts built for a different config
// load fine but bind nothing; the engine answers iteratively.
func TestArtifactMismatchBypasses(t *testing.T) {
	ds := smallDataset(t)
	cfgBuilt := quickConfig()
	cfgLive := quickConfig()
	cfgLive.RWR.C = 0.7
	dir := buildArtifactDir(t, ds.Graph, cfgBuilt.RWR, 0, 1, 64<<20)
	eng := newEngine(t, ds.Graph, ceps.WithConfig(cfgLive), ceps.WithCache(8<<20), ceps.WithArtifactDir(dir))
	defer eng.Close()
	st, ok := eng.ArtifactStats()
	if !ok || st.Loaded != 1 || st.Bound != 0 {
		t.Fatalf("stats = %+v, want 1 loaded / 0 bound on a config mismatch", st)
	}
	res, err := eng.Do(context.Background(), []int{ds.Repository[0][0], ds.Repository[1][0]})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages.ArtifactHits != 0 {
		t.Fatal("bypassed tier still served rows")
	}
}
