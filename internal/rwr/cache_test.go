package rwr

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"ceps/internal/graph"
)

func cacheTestGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n, 1+float64(i%3))
		b.AddEdge(i, (i+7)%n, 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFingerprintDistinguishesConfigs(t *testing.T) {
	base := DefaultConfig()
	variants := []Config{
		{C: 0.6, Iterations: base.Iterations, Norm: base.Norm, Alpha: base.Alpha},
		{C: base.C, Iterations: 25, Norm: base.Norm, Alpha: base.Alpha},
		{C: base.C, Iterations: base.Iterations, Norm: NormColumn, Alpha: base.Alpha},
		{C: base.C, Iterations: base.Iterations, Norm: base.Norm, Alpha: 0.9},
		{C: base.C, Iterations: base.Iterations, Norm: base.Norm, Alpha: base.Alpha, Tol: 1e-6},
	}
	for i, v := range variants {
		if v.Fingerprint() == base.Fingerprint() {
			t.Errorf("variant %d collides with the base fingerprint", i)
		}
	}
	if base.Fingerprint() != base.Fingerprint() {
		t.Error("fingerprint not deterministic")
	}
}

func TestSpaceSeparatesGraphIdentity(t *testing.T) {
	fp := DefaultConfig().Fingerprint()
	full := Space(fp, 0, nil)
	u1 := Space(fp, 1, []int{0, 2})
	u2 := Space(fp, 1, []int{0, 3})
	u3 := Space(fp, 2, []int{0, 2})
	if full == u1 || u1 == u2 || u1 == u3 {
		t.Fatalf("spaces collide: full=%x u1=%x u2=%x u3=%x", full, u1, u2, u3)
	}
}

// TestServingBitIdentical: the serving path returns exactly the vectors a
// plain solve returns, on first (miss) and second (hit) lookup.
func TestServingBitIdentical(t *testing.T) {
	g := cacheTestGraph(t, 60)
	s, err := NewSolver(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cache := NewScoreCache(1 << 20)
	space := Space(s.Config().Fingerprint(), 0, nil)
	queries := []int{3, 17, 41}

	want, wantDiags, err := s.ScoresSetCtx(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		got, diags, _, _, err := s.ScoresSetServingCtx(context.Background(), queries, cache, space, NewPool(4), ServeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if diags[i] != wantDiags[i] {
				t.Fatalf("round %d query %d: diagnostics %+v != %+v", round, i, diags[i], wantDiags[i])
			}
			for j := range want[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("round %d query %d node %d: %v != %v", round, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
	st := cache.Stats()
	if st.Misses != 3 || st.Hits != 3 {
		t.Errorf("stats = %+v, want 3 misses then 3 hits", st)
	}
}

// TestServingSharesCachedRows pins the read-only contract: a hit, a
// repeat and the leader that solved the vector all receive the cache's
// one stored copy, so serving a cached source allocates no vector.
func TestServingSharesCachedRows(t *testing.T) {
	g := cacheTestGraph(t, 30)
	s, err := NewSolver(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cache := NewScoreCache(1 << 20)
	first, _, _, _, err := s.ScoresSetServingCtx(context.Background(), []int{5}, cache, 1, nil, ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		again, _, _, stats, err := s.ScoresSetServingCtx(context.Background(), []int{5, 5}, cache, 1, nil, ServeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Hits != 2 {
			t.Fatalf("stats %+v, want 2 hits", stats)
		}
		for _, row := range again {
			if &row[0] != &first[0][0] {
				t.Fatal("a cache hit returned a copy, want the stored vector")
			}
		}
	}
}

// TestCacheEvictionUnderTinyBudget: a budget that fits roughly one vector
// still serves correct results and counts evictions.
func TestCacheEvictionUnderTinyBudget(t *testing.T) {
	g := cacheTestGraph(t, 50)
	s, err := NewSolver(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cache := NewScoreCache(int64(50*8) + entryOverhead) // one vector
	want, err := s.Scores(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{2, 9, 30, 2} {
		if _, _, _, _, err := s.ScoresSetServingCtx(context.Background(), []int{q}, cache, 1, nil, ServeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	got, _, _, _, err := s.ScoresSetServingCtx(context.Background(), []int{2}, cache, 1, nil, ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if got[0][j] != want[j] {
			t.Fatalf("node %d: %v != %v after evictions", j, got[0][j], want[j])
		}
	}
	st := cache.Stats()
	if st.Evictions == 0 {
		t.Errorf("expected evictions under a one-vector budget, stats %+v", st)
	}
	if st.Entries > 1 {
		t.Errorf("budget admits %d entries, want ≤ 1", st.Entries)
	}
}

// TestCacheZeroBudgetAlwaysMisses: a disabled cache stays correct and
// stores nothing.
func TestCacheZeroBudgetAlwaysMisses(t *testing.T) {
	g := cacheTestGraph(t, 20)
	s, err := NewSolver(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cache := NewScoreCache(0)
	for i := 0; i < 2; i++ {
		if _, _, _, _, err := s.ScoresSetServingCtx(context.Background(), []int{4}, cache, 1, nil, ServeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	if st.Entries != 0 || st.Hits != 0 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 2 misses and nothing stored", st)
	}
}

func TestPurgeDropsEntriesAndCounts(t *testing.T) {
	cache := NewScoreCache(1 << 20)
	cache.mu.Lock()
	cache.storeLocked(cacheKey{space: 1, source: 2}, []float64{1, 2, 3}, Diagnostics{})
	cache.mu.Unlock()
	if cache.Stats().Entries != 1 {
		t.Fatal("entry not stored")
	}
	cache.Purge()
	st := cache.Stats()
	if st.Entries != 0 || st.BytesUsed != 0 || st.Invalidations != 1 {
		t.Errorf("after purge stats = %+v", st)
	}
}

// TestSingleflightSharesOneSolve: many concurrent requesters of one cold
// source produce exactly one miss (the leader) and identical vectors.
func TestSingleflightSharesOneSolve(t *testing.T) {
	g := cacheTestGraph(t, 200)
	cfg := DefaultConfig()
	cfg.Iterations = 80
	s, err := NewSolver(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewScoreCache(1 << 20)
	pool := NewPool(4)
	const goroutines = 16
	results := make([][]float64, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			R, _, _, _, err := s.ScoresSetServingCtx(context.Background(), []int{7}, cache, 9, pool, ServeOptions{})
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = R[0]
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	for i := 1; i < goroutines; i++ {
		for j := range results[0] {
			if results[i][j] != results[0][j] {
				t.Fatalf("goroutine %d disagrees at node %d", i, j)
			}
		}
	}
	st := cache.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 (singleflight)", st.Misses)
	}
	if st.Hits != goroutines-1 {
		t.Errorf("hits = %d, want %d", st.Hits, goroutines-1)
	}
}

// TestServingFollowerSurvivesLeaderCancel: a follower with a live context
// retries when the leader's context is canceled mid-solve.
func TestServingFollowerSurvivesLeaderCancel(t *testing.T) {
	g := cacheTestGraph(t, 300)
	cfg := DefaultConfig()
	cfg.Iterations = 1 << 20 // long solve so cancellation lands mid-flight
	cfg.Tol = 1e-12
	s, err := NewSolver(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewScoreCache(1 << 20)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	started := make(chan struct{})
	var leaderErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(started)
		_, _, _, _, leaderErr = s.ScoresSetServingCtx(leaderCtx, []int{3}, cache, 1, nil, ServeOptions{})
	}()
	<-started
	cancelLeader()
	wg.Wait()
	if leaderErr == nil {
		// The solve may have finished before cancellation; either way the
		// follower below must succeed.
		t.Log("leader finished before cancel")
	}
	R, _, _, _, err := s.ScoresSetServingCtx(context.Background(), []int{3}, cache, 1, nil, ServeOptions{})
	if err != nil {
		t.Fatalf("follower failed after leader cancel: %v", err)
	}
	if len(R[0]) != g.N() {
		t.Fatal("bad vector length")
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	pool := NewPool(2)
	var mu sync.Mutex
	active, peak := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := pool.acquire(context.Background()); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			active++
			if active > peak {
				peak = active
			}
			mu.Unlock()
			mu.Lock()
			active--
			mu.Unlock()
			pool.release()
		}()
	}
	wg.Wait()
	if peak > 2 {
		t.Fatalf("peak concurrency %d exceeds pool bound 2", peak)
	}
}

func TestPoolAcquireHonorsContext(t *testing.T) {
	pool := NewPool(1)
	if err := pool.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := pool.acquire(ctx); err == nil {
		t.Fatal("acquire on a canceled context should fail")
	}
	pool.release()
}

// TestFinishAfterPurgeDropsStore is the purge/in-flight-race regression
// test: a leader whose flight started before a Purge must not store its
// vector afterwards. Under the old ScoreCache the store landed anyway,
// leaving a dead-space vector (its key space was retired by the purge's
// caller) consuming the byte budget until LRU eviction; this test fails
// on that behavior and passes on the generation-guarded one.
func TestFinishAfterPurgeDropsStore(t *testing.T) {
	cache := NewScoreCache(1 << 20)
	ent, fl, leader := cache.getOrJoin(42, 7)
	if ent != nil || !leader {
		t.Fatalf("expected to lead a cold flight, hit=%v leader=%v", ent != nil, leader)
	}
	cache.Purge() // Reconfigure/SetPartitioned racing the in-flight solve
	cache.finish(42, 7, fl, make([]float64, 128), Diagnostics{}, nil)

	st := cache.Stats()
	if st.Entries != 0 || st.BytesUsed != 0 {
		t.Fatalf("stale flight stored dead space: %d entries, %d bytes used", st.Entries, st.BytesUsed)
	}
	if st.StaleDrops != 1 {
		t.Errorf("StaleDrops = %d, want 1", st.StaleDrops)
	}
	// The waiters still got the leader's vector.
	select {
	case <-fl.done:
	default:
		t.Fatal("flight not completed")
	}
	if fl.err != nil || len(fl.vec) != 128 {
		t.Fatalf("flight result lost: err=%v len=%d", fl.err, len(fl.vec))
	}
}

// TestPurgeBetweenFlightsNoDeadSpace drives many concurrent flights whose
// finishes are all gated until after a Purge, then checks that none of
// them re-occupied the byte budget. Run under -race by the tier-1 gate.
func TestPurgeBetweenFlightsNoDeadSpace(t *testing.T) {
	cache := NewScoreCache(1 << 20)
	const flights = 64
	var registered, finished sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < flights; i++ {
		registered.Add(1)
		finished.Add(1)
		go func(i int) {
			defer finished.Done()
			ent, fl, leader := cache.getOrJoin(9, i)
			registered.Done()
			if ent != nil || !leader {
				t.Errorf("flight %d: hit=%v leader=%v", i, ent != nil, leader)
				return
			}
			<-gate
			cache.finish(9, i, fl, make([]float64, 64), Diagnostics{}, nil)
		}(i)
	}
	registered.Wait()
	cache.Purge() // every flight is now stale
	close(gate)
	finished.Wait()

	st := cache.Stats()
	if st.BytesUsed != 0 || st.Entries != 0 {
		t.Fatalf("dead space after purge: %d entries, %d bytes (stats %+v)", st.Entries, st.BytesUsed, st)
	}
	if st.StaleDrops != flights {
		t.Errorf("StaleDrops = %d, want %d", st.StaleDrops, flights)
	}
	// Post-purge flights store normally again.
	_, fl, leader := cache.getOrJoin(9, 0)
	if !leader {
		t.Fatal("expected a fresh leader after purge")
	}
	cache.finish(9, 0, fl, make([]float64, 64), Diagnostics{}, nil)
	if st := cache.Stats(); st.Entries != 1 || st.BytesUsed == 0 {
		t.Fatalf("fresh store after purge failed: %+v", st)
	}
}

// TestServingResolverTable pins ScoresSetServingCtx against the scalar
// reference over every combination of its attachments — cache, coalescer,
// artifact tier, pool — for query sets of 1, 3 and 8 sources (the larger
// two with a duplicate), under all three normalizations with and without
// early stopping. Every answer and its Diagnostics must be Float64bits-equal
// to ScoresSetCtx (artifact-served sources carry the tier's converged,
// zero-sweep diagnostics instead), the per-call stats must account for
// every source, and with a cache a repeat call must be all hits.
func TestServingResolverTable(t *testing.T) {
	g := randomGraph(t, 60, 150, 91)
	const space = uint64(77)
	covered := map[int]bool{17: true, 9: true, 30: true}
	sets := [][]int{{17}, {5, 17, 5}, {3, 9, 21, 40, 9, 12, 30, 44}}
	ctx := context.Background()

	for _, norm := range []NormKind{NormColumn, NormDegreePenalized, NormSymmetric} {
		for _, tol := range []float64{0, 1e-6} {
			s, err := NewSolver(g, Config{C: 0.5, Iterations: 40, Norm: norm, Alpha: 0.5, Tol: tol})
			if err != nil {
				t.Fatal(err)
			}
			fa := newFakeArtifacts(t, s, space, []int{17, 9, 30})
			for _, withCache := range []bool{false, true} {
				for _, withCoalescer := range []bool{false, true} {
					for _, withArtifacts := range []bool{false, true} {
						for _, poolSize := range []int{0, 1, 4} {
							for _, queries := range sets {
								name := fmt.Sprintf("norm=%v tol=%g cache=%v coalesce=%v artifacts=%v pool=%d Q=%d",
									norm, tol, withCache, withCoalescer, withArtifacts, poolSize, len(queries))
								var cache *ScoreCache
								if withCache {
									cache = NewScoreCache(1 << 20)
								}
								var pool *Pool
								if poolSize > 0 {
									pool = NewPool(poolSize)
								}
								var opt ServeOptions
								if withCoalescer {
									opt.Coalesce = NewCoalescer(CoalesceOptions{})
								}
								artifactServed := func(q int) bool { return false }
								if withArtifacts {
									opt.Artifacts = fa
									artifactServed = func(q int) bool { return covered[q] }
								}
								wantR, wantD, err := s.ScoresSetCtx(ctx, queries)
								if err != nil {
									t.Fatal(err)
								}
								check := func(round string, R [][]float64, D []Diagnostics) {
									t.Helper()
									for i, q := range queries {
										for j := range wantR[i] {
											if math.Float64bits(R[i][j]) != math.Float64bits(wantR[i][j]) {
												t.Fatalf("%s %s: source %d node %d: %v != %v", name, round, q, j, R[i][j], wantR[i][j])
											}
										}
										want := wantD[i]
										if artifactServed(q) {
											want = artifactDiag()
										}
										if D[i].Sweeps != want.Sweeps || D[i].Converged != want.Converged ||
											math.Float64bits(D[i].Residual) != math.Float64bits(want.Residual) {
											t.Fatalf("%s %s: source %d diagnostics %+v != %+v", name, round, q, D[i], want)
										}
									}
								}

								R, D, _, st, err := s.ScoresSetServingCtx(ctx, queries, cache, space, pool, opt)
								if err != nil {
									t.Fatalf("%s: %v", name, err)
								}
								check("cold", R, D)
								// Without a cache every source leads; with one,
								// a duplicate follows its own call's flight.
								wantMisses, wantArtifacts := 0, 0
								seen := map[int]bool{}
								for _, q := range queries {
									if withCache && seen[q] {
										continue
									}
									seen[q] = true
									wantMisses++
									if artifactServed(q) {
										wantArtifacts++
									}
								}
								if st.Hits+st.Misses != len(queries) || st.Misses != wantMisses ||
									st.ArtifactHits != wantArtifacts || st.ArtifactHits > st.Misses {
									t.Fatalf("%s: cold stats %+v, want %d misses with %d artifact hits over %d queries",
										name, st, wantMisses, wantArtifacts, len(queries))
								}
								if !withCache {
									continue
								}
								reads := fa.reads.Load()
								R, D, _, st, err = s.ScoresSetServingCtx(ctx, queries, cache, space, pool, opt)
								if err != nil {
									t.Fatalf("%s repeat: %v", name, err)
								}
								check("repeat", R, D)
								if st.Hits != len(queries) || st.Misses != 0 || st.ArtifactHits != 0 {
									t.Fatalf("%s: repeat stats %+v, want all %d hits", name, st, len(queries))
								}
								if fa.reads.Load() != reads {
									t.Fatalf("%s: repeat consulted the artifact tier despite cached vectors", name)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestCacheUphillBitmask pins the uphill bitmask a cache keeps beside a
// stored vector (ServeOptions.Uphill): followers, stale flights, leaders
// and artifact reads build none; a stored entry's first hit builds one,
// charged to BytesUsed, and later hits share it; concurrent first hits
// build it once; a bitmask that does not fit is not attached, and no
// vector is evicted for it; eviction and Purge drop it with its vector,
// and one whose entry is purged while it is built is not attached.
// Run with -race -count=4 by make race-hammer.
func TestCacheUphillBitmask(t *testing.T) {
	g := cacheTestGraph(t, 40)
	s, err := NewSolver(g, colConfig())
	if err != nil {
		t.Fatal(err)
	}
	const words = 6
	maskBytes := int64(8 * words)
	var builds atomic.Int64
	var gate chan struct{} // non-nil: builds wait for it to close
	var during func()      // non-nil: builds call it
	build := func([]float64) []uint64 {
		builds.Add(1)
		if gate != nil {
			<-gate
		}
		if during != nil {
			during()
		}
		return make([]uint64, words)
	}
	fa := newFakeArtifacts(t, s, 1, []int{9})
	opt := ServeOptions{Uphill: build, Artifacts: fa}
	// call serves source q alone in space 1 and returns its bitmask.
	call := func(cache *ScoreCache, q int) ([]uint64, error) {
		_, _, up, _, err := s.ScoresSetServingCtx(context.Background(), []int{q}, cache, 1, nil, opt)
		if err != nil || up == nil {
			return nil, err
		}
		return up[0], nil
	}
	serve := func(cache *ScoreCache, q int) []uint64 {
		t.Helper()
		up, err := call(cache, q)
		if err != nil {
			t.Fatal(err)
		}
		return up
	}
	wantBuilds := func(n int64) {
		t.Helper()
		if got := builds.Load(); got != n {
			t.Fatalf("%d bitmask builds, want %d", got, n)
		}
	}

	// A follower of a flight that goes stale, a leader and an artifact read.
	cache := NewScoreCache(1 << 20)
	_, fl, _ := cache.getOrJoin(1, 5)
	followed := make(chan []uint64, 1)
	go func() {
		up, err := call(cache, 5)
		if err != nil {
			t.Error(err)
		}
		followed <- up
	}()
	waitUntil(t, "the follower to join", func() bool { return cache.Stats().Hits == 1 })
	cache.Purge()
	vec5, err := s.Scores(5)
	if err != nil {
		t.Fatal(err)
	}
	cache.finish(1, 5, fl, vec5, Diagnostics{}, nil)
	if up := <-followed; up != nil {
		t.Fatal("a follower got a bitmask")
	}
	if serve(cache, 3) != nil || serve(cache, 9) != nil {
		t.Fatal("a leader or an artifact read got a bitmask")
	}
	wantBuilds(0)

	// The first hit builds and is charged; later hits share its bitmask.
	before := cache.Stats().BytesUsed
	up := serve(cache, 3)
	wantBuilds(1)
	if len(up) != words {
		t.Fatalf("first hit got %d words, want %d", len(up), words)
	}
	if used := cache.Stats().BytesUsed; used != before+maskBytes {
		t.Fatalf("BytesUsed %d after the build, want %d", used, before+maskBytes)
	}
	if again := serve(cache, 3); len(again) != words || &again[0] != &up[0] {
		t.Fatal("a later hit did not get the attached bitmask")
	}
	if serve(cache, 9) == nil { // the artifact row's first hit
		t.Fatal("an artifact-stored entry's first hit got no bitmask")
	}
	wantBuilds(2)
	checkSieve(t, cache)

	// Concurrent first hits: one builds, the others get nil meanwhile.
	serve(cache, 5)
	gate = make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // frees blocked builds if the test fails first
	const hitters = 8
	got := make(chan []uint64, hitters)
	for range hitters {
		go func() {
			up, err := call(cache, 5)
			if err != nil {
				t.Error(err)
			}
			got <- up
		}()
	}
	waitUntil(t, "every hit but one to return during the build", func() bool { return len(got) == hitters-1 })
	for range hitters - 1 {
		if <-got != nil {
			t.Fatal("a hit got a bitmask while the first build was running")
		}
	}
	release()
	if <-got == nil {
		t.Fatal("the building hit got no bitmask")
	}
	gate = nil
	wantBuilds(3)
	checkSieve(t, cache)

	// Room for two vectors and one bitmask: the second bitmask is built but
	// not attached, and nothing is evicted for it.
	n := g.N()
	small := NewScoreCache(2*vecBytes(n) + maskBytes)
	serve(small, 1)
	serve(small, 2)
	if serve(small, 1) == nil {
		t.Fatal("a bitmask that fits was not built")
	}
	if serve(small, 2) == nil {
		t.Fatal("the first hit of a full cache's entry got no bitmask")
	}
	wantBuilds(5)
	if st := small.Stats(); st.Evictions != 0 || st.Entries != 2 || st.BytesUsed != st.BytesBudget {
		t.Fatalf("stats %+v, want 2 entries, one bitmask, no eviction", st)
	}
	if serve(small, 2) != nil {
		t.Fatal("an entry whose bitmask did not fit got a second build")
	}
	wantBuilds(5)

	// A store evicts source 1 by SIEVE, and its bitmask goes with it.
	serve(small, 3)
	if st := small.Stats(); st.Evictions != 1 || st.BytesUsed != 2*vecBytes(n) {
		t.Fatalf("stats %+v, want one eviction and two bare vectors", st)
	}
	if r := resident(small, 1, 2, 3); r[0] || !r[1] || !r[2] {
		t.Fatalf("resident 1, 2, 3 = %v, want 2 and 3", r)
	}
	checkSieve(t, small)

	// Purge drops every bitmask with its vector; a new entry builds anew,
	// and a build that a Purge overtakes is used but not attached.
	cache.Purge()
	if st := cache.Stats(); st.BytesUsed != 0 || st.Entries != 0 {
		t.Fatalf("stats %+v after Purge, want nothing stored", st)
	}
	serve(cache, 3)
	during = cache.Purge
	if serve(cache, 3) == nil {
		t.Fatal("a purged source's new entry got no bitmask")
	}
	during = nil
	wantBuilds(6)
	if st := cache.Stats(); st.BytesUsed != 0 || st.Entries != 0 {
		t.Fatalf("stats %+v, want the bitmask of a purged entry not charged", st)
	}
	checkSieve(t, cache)
}
