package artifact

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ceps/internal/graph"
	"ceps/internal/partition"
	"ceps/internal/rwr"
)

// testGraph builds a random connected graph, deterministic under seed.
func testGraph(t testing.TB, n, extra int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(i, rng.Intn(i), 1+rng.Float64()*4)
	}
	for i := 0; i < extra; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n), 1+rng.Float64()*4)
	}
	return b.MustBuild()
}

func testCfg(norm rwr.NormKind) rwr.Config {
	return rwr.Config{C: 0.5, Iterations: 50, Norm: norm, Alpha: 0.5}
}

func mustPartition(t testing.TB, g *graph.Graph, k int) *partition.Result {
	t.Helper()
	pt, err := partition.KWay(g, k, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

// TestBuildOpenRoundTripFullCoverage: under the default budget every
// source of the 90-node graph fits, and each row read back is the
// iterative solver's own, Float64bits-identical to ScoresCtx.
func TestBuildOpenRoundTripFullCoverage(t *testing.T) {
	g := testGraph(t, 90, 240, 61)
	pt := mustPartition(t, g, 3)
	dir := t.TempDir()
	for _, norm := range []rwr.NormKind{rwr.NormColumn, rwr.NormDegreePenalized, rwr.NormSymmetric} {
		cfg := testCfg(norm)
		res, err := Build(context.Background(), g, BuildConfig{RWR: cfg, Partition: pt, IncludeFull: true}, dir)
		if err != nil {
			t.Fatal(err)
		}
		if res.Written != pt.K+1 {
			t.Fatalf("wrote %d artifacts, want %d parts + full", res.Written, pt.K)
		}
		store, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		a, ok := store.Find(Key{GraphFP: g.Fingerprint(), ConfigFP: cfg.Fingerprint()})
		if !ok {
			t.Fatal("full-graph artifact not found by key")
		}
		if len(a.Sources) != g.N() {
			t.Fatalf("artifact covers %d of %d sources under the default budget", len(a.Sources), g.N())
		}
		s, err := rwr.NewSolver(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < g.N(); q++ {
			got, ok := a.Row(q)
			if !ok {
				t.Fatalf("artifact misses source %d", q)
			}
			want, _, err := s.ScoresCtx(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("norm %v q %d node %d: artifact %v vs iterative %v", norm, q, j, got[j], want[j])
				}
			}
		}
		// Per-part artifact: key includes the partition fingerprint and
		// part id, and rows are the union-graph solves.
		pa, ok := store.Find(Key{GraphFP: g.Fingerprint(), ConfigFP: cfg.Fingerprint(), PartitionFP: pt.Fingerprint(), Parts: []int{0}})
		if !ok {
			t.Fatal("part-0 artifact not found by key")
		}
		if pa.N != pt.PartSizes[0] || len(pa.Sources) != pa.N {
			t.Fatalf("part-0 artifact has %d nodes and %d sources, part has %d", pa.N, len(pa.Sources), pt.PartSizes[0])
		}
		store.Close()
	}
}

func TestBuildPanelBitIdenticalToIterative(t *testing.T) {
	g := testGraph(t, 120, 300, 63)
	cfg := testCfg(rwr.NormColumn)
	dir := t.TempDir()
	// A budget of 40 rows forces the panel class on a 120-node graph.
	budget := int64(40 * g.N() * 8)
	if _, err := Build(context.Background(), g, BuildConfig{RWR: cfg, ByteBudget: budget}, dir); err != nil {
		t.Fatal(err)
	}
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	a, ok := store.Find(Key{GraphFP: g.Fingerprint(), ConfigFP: cfg.Fingerprint()})
	if !ok {
		t.Fatal("artifact not found")
	}
	if len(a.Sources) != 40 {
		t.Fatalf("panel covers %d sources, want 40", len(a.Sources))
	}
	s, err := rwr.NewSolver(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range a.Sources {
		got, ok := a.Row(q)
		if !ok {
			t.Fatalf("panel misses its own source %d", q)
		}
		want, _, err := s.ScoresCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("q %d node %d: artifact %v vs iterative %v", q, j, got[j], want[j])
			}
		}
	}
	// Uncovered sources must report no row, not a wrong one.
	covered := make(map[int]bool, len(a.Sources))
	for _, q := range a.Sources {
		covered[q] = true
	}
	uncovered := -1
	for q := 0; q < g.N(); q++ {
		if !covered[q] {
			uncovered = q
			break
		}
	}
	if uncovered < 0 {
		t.Fatal("test bug: panel covers everything")
	}
	if _, ok := a.Row(uncovered); ok {
		t.Fatalf("panel claims a row for uncovered source %d", uncovered)
	}
}

func TestBuildDeterministic(t *testing.T) {
	g := testGraph(t, 80, 200, 65)
	pt := mustPartition(t, g, 2)
	cfg := testCfg(rwr.NormDegreePenalized)
	dirA, dirB := t.TempDir(), t.TempDir()
	if _, err := Build(context.Background(), g, BuildConfig{RWR: cfg, Partition: pt, IncludeFull: true, Workers: 1}, dirA); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(context.Background(), g, BuildConfig{RWR: cfg, Partition: pt, IncludeFull: true, Workers: 4}, dirB); err != nil {
		t.Fatal(err)
	}
	entriesA, err := os.ReadDir(dirA)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entriesA {
		a, err := os.ReadFile(filepath.Join(dirA, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, ent.Name()))
		if err != nil {
			t.Fatalf("file %s missing from second build: %v", ent.Name(), err)
		}
		if string(a) != string(b) {
			t.Fatalf("%s differs between builds (worker counts must not change bytes)", ent.Name())
		}
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	g := testGraph(t, 60, 150, 67)
	cfg := testCfg(rwr.NormColumn)
	build := func(t *testing.T) (string, string) {
		dir := t.TempDir()
		res, err := Build(context.Background(), g, BuildConfig{RWR: cfg}, dir)
		if err != nil {
			t.Fatal(err)
		}
		return dir, res.Units[0].File
	}
	damage := []struct {
		name string
		hurt func(t *testing.T, path string)
	}{
		{"flipped payload byte", func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)-5] ^= 0xff
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated file", func(t *testing.T, path string) {
			if err := os.Truncate(path, 100); err != nil {
				t.Fatal(err)
			}
		}},
		{"bad magic", func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			copy(raw, "NOTANART")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"missing file", func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}},
		// An older build's dense-class file: intact, but a class this
		// build refuses.
		{"dense class word", func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, denseImage(raw), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			dir, file := build(t)
			d.hurt(t, filepath.Join(dir, file))
			if _, err := Open(dir); err == nil {
				t.Fatal("Open accepted a damaged store")
			}
			checked, issues, err := Verify(dir)
			if d.name != "missing file" && err != nil {
				t.Fatalf("Verify errored instead of reporting: %v", err)
			}
			if err == nil && (checked == 0 || len(issues) == 0) {
				t.Fatalf("Verify found nothing wrong (checked %d, issues %v)", checked, issues)
			}
		})
	}
}

func TestVerifyCleanAndStray(t *testing.T) {
	g := testGraph(t, 50, 120, 69)
	dir := t.TempDir()
	if _, err := Build(context.Background(), g, BuildConfig{RWR: testCfg(rwr.NormColumn)}, dir); err != nil {
		t.Fatal(err)
	}
	checked, issues, err := Verify(dir)
	if err != nil || len(issues) != 0 || checked != 1 {
		t.Fatalf("clean store: checked=%d issues=%v err=%v", checked, issues, err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stray"+FileExt), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, issues, err = Verify(dir)
	if err != nil || len(issues) != 1 || issues[0].File != "stray"+FileExt {
		t.Fatalf("stray file not flagged: issues=%v err=%v", issues, err)
	}
}

func TestOpenRejectsMissingIndex(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Fatal("Open accepted a directory with no index")
	}
}

func TestTierBindReadRebind(t *testing.T) {
	g := testGraph(t, 70, 180, 71)
	cfg := testCfg(rwr.NormColumn)
	dir := t.TempDir()
	if _, err := Build(context.Background(), g, BuildConfig{RWR: cfg}, dir); err != nil {
		t.Fatal(err)
	}
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var logged []string
	tier := NewTier(store, func(format string, args ...any) {
		logged = append(logged, format)
	})
	key := Key{GraphFP: g.Fingerprint(), ConfigFP: cfg.Fingerprint()}

	const space = uint64(12345)
	if _, ok := tier.ReadVector(space, 3); ok {
		t.Fatal("unbound space must miss")
	}
	if !tier.Bind(space, key, g.N()) {
		t.Fatal("bind with the right key and shape must succeed")
	}
	vec, ok := tier.ReadVector(space, 3)
	if !ok || len(vec) != g.N() {
		t.Fatalf("bound read failed: ok=%v len=%d", ok, len(vec))
	}
	st := tier.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Bound != 1 || st.Loaded != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// Shape mismatch at bind time is a fallback, logged.
	if tier.Bind(space+1, key, g.N()+5) {
		t.Fatal("bind must reject a node-count mismatch")
	}
	if tier.Stats().Fallbacks != 1 || len(logged) == 0 {
		t.Fatalf("fallback not counted/logged: %+v, %v", tier.Stats(), logged)
	}

	// Unknown key: no bind, no fallback (it is a normal no-artifact case).
	if tier.Bind(space+2, Key{GraphFP: 1}, g.N()) {
		t.Fatal("bind must fail for an unknown key")
	}

	tier.Rebind()
	if _, ok := tier.ReadVector(space, 3); ok {
		t.Fatal("Rebind must drop bindings")
	}
	st = tier.Stats()
	if st.Rebinds != 1 || st.Generation != 1 || st.Bound != 0 {
		t.Fatalf("post-rebind stats = %+v", st)
	}

	// NoteBypass logs once per generation.
	before := len(logged)
	tier.NoteBypass("fingerprint mismatch")
	tier.NoteBypass("fingerprint mismatch")
	if len(logged) != before+1 {
		t.Fatalf("NoteBypass logged %d times, want once", len(logged)-before)
	}
}

// denseImage rewrites an artifact image as an older build's dense-class
// file: class word 1 and a recomputed checksum, so the class is the only
// thing wrong with it.
func denseImage(image []byte) []byte {
	old := append([]byte(nil), image...)
	binary.LittleEndian.PutUint32(old[12:], 1)
	h := fnv.New64a()
	h.Write(old[:64])
	h.Write(old[headerSize:])
	binary.LittleEndian.PutUint64(old[64:], h.Sum64())
	return old
}

func TestBuildSkipsWhenBudgetBelowOneRow(t *testing.T) {
	g := testGraph(t, 300, 600, 75)
	dir := t.TempDir()
	res, err := Build(context.Background(), g, BuildConfig{RWR: testCfg(rwr.NormColumn), ByteBudget: int64(g.N())}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Written != 0 || len(res.Units) != 1 || !res.Units[0].Skipped {
		t.Fatalf("unit not skipped: %+v", res)
	}
	// The (empty) store must still open cleanly.
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != 0 {
		t.Fatalf("store has %d artifacts, want 0", store.Len())
	}
	store.Close()
}
