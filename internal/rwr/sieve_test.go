package rwr

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// vecBytes is the budget charge of one stored vector of n scores.
func vecBytes(n int) int64 { return int64(n)*8 + entryOverhead }

// store inserts a vector of n scores for source under the cache lock.
func store(c *ScoreCache, source, n int) {
	c.mu.Lock()
	c.storeLocked(cacheKey{space: 1, source: source}, make([]float64, n), Diagnostics{})
	c.mu.Unlock()
}

// hit looks source up, failing the test on a miss.
func hit(t *testing.T, c *ScoreCache, source int) {
	t.Helper()
	if ent, _, _ := c.getOrJoin(1, source); ent == nil {
		t.Fatalf("source %d not resident", source)
	}
}

// resident lists whether each source is stored, without touching the
// visited bits or the counters.
func resident(c *ScoreCache, sources ...int) []bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]bool, len(sources))
	for i, s := range sources {
		_, out[i] = c.items[cacheKey{space: 1, source: s}]
	}
	return out
}

// checkSieve verifies the list and the accounting agree: the list links
// every indexed entry exactly once in both directions, used is the sum of
// their sizes and within budget, and the hand is on the list.
func checkSieve(t *testing.T, c *ScoreCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int
	var used int64
	handOK := c.hand == nil
	var prev *entry
	for e := c.oldest; e != nil; e = e.next {
		if e.prev != prev {
			t.Fatalf("entry %v: prev link broken", e.key)
		}
		if c.items[e.key] != e {
			t.Fatalf("entry %v on the list but not indexed", e.key)
		}
		handOK = handOK || e == c.hand
		n++
		used += e.bytes
		prev = e
	}
	if prev != c.newest {
		t.Fatal("newest does not end the list")
	}
	if n != len(c.items) || used != c.used || c.used > c.budget || !handOK {
		t.Fatalf("list %d entries / %d bytes, index %d / %d bytes, budget %d, hand on list %v",
			n, used, len(c.items), c.used, c.budget, handOK)
	}
}

// TestSieveKeepsVisitedEntry: a vector hit since the hand last passed
// survives the next eviction, where LRU would have dropped it. A is hit
// before B and C arrive, so A is least recently used; SIEVE clears A's
// bit and evicts B, the oldest entry nobody asked for again.
func TestSieveKeepsVisitedEntry(t *testing.T) {
	const n = 16
	c := NewScoreCache(3 * vecBytes(n))
	store(c, 'A', n)
	hit(t, c, 'A')
	store(c, 'B', n)
	store(c, 'C', n)
	store(c, 'D', n)
	if got := resident(c, 'A', 'B', 'C', 'D'); !got[0] || got[1] || !got[2] || !got[3] {
		t.Fatalf("resident A,B,C,D = %v, want A, C and D (B evicted)", got)
	}
	// The hand resumes where it stopped, at C, never hit: C goes next. A's
	// bit is clear now, so A goes once the hand wraps around to it.
	store(c, 'E', n)
	if got := resident(c, 'A', 'C', 'D', 'E'); !got[0] || got[1] || !got[2] || !got[3] {
		t.Fatalf("resident A,C,D,E = %v, want C evicted next", got)
	}
	if st := c.Stats(); st.Evictions != 2 || st.Entries != 3 {
		t.Errorf("stats %+v, want 2 evictions and 3 entries", st)
	}
	checkSieve(t, c)
}

// TestSievePurgeResetsHand: after a purge the hand starts again from the
// oldest entry, not from a purged one.
func TestSievePurgeResetsHand(t *testing.T) {
	const n = 16
	c := NewScoreCache(3 * vecBytes(n))
	for _, s := range []int{'A', 'B', 'C', 'D'} { // D evicts A; the hand rests on B
		store(c, s, n)
	}
	if c.hand == nil {
		t.Fatal("hand not parked after an eviction")
	}
	c.Purge()
	if c.hand != nil || c.oldest != nil || c.newest != nil {
		t.Fatal("purge left list state behind")
	}
	for _, s := range []int{'E', 'F', 'G', 'H'} {
		store(c, s, n)
	}
	if got := resident(c, 'E', 'F', 'G', 'H'); got[0] || !got[1] || !got[2] || !got[3] {
		t.Fatalf("resident E,F,G,H = %v, want E (the oldest) evicted", got)
	}
	checkSieve(t, c)
}

// TestSieveMixedSizes: entries of different sizes — Fast CePS union
// vectors next to full-graph ones — are evicted down to the budget, and a
// replaced key is re-charged, not double-counted.
func TestSieveMixedSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewScoreCache(20 * vecBytes(64))
	for i := 0; i < 2000; i++ {
		source := rng.Intn(60)
		if rng.Intn(3) == 0 {
			c.mu.Lock()
			if e, ok := c.items[cacheKey{space: 1, source: source}]; ok {
				e.visited = true
			}
			c.mu.Unlock()
			continue
		}
		store(c, source, 1+rng.Intn(400))
		if c.Stats().BytesUsed > c.budget {
			t.Fatalf("step %d: %d bytes used over a %d budget", i, c.Stats().BytesUsed, c.budget)
		}
	}
	checkSieve(t, c)
	if c.Stats().Evictions == 0 {
		t.Error("no evictions under a 20-vector budget")
	}
}

// TestCacheConcurrentHitStorePurge hammers hits, stores (through cold
// solves under a small budget), uphill-bitmask builds and purges from
// several goroutines. Every answer must stay Float64bits-equal to a fresh
// solve, every bitmask must be its own vector's, and the cache's list and
// accounting must agree afterwards. Run with -race -count=10 by make
// race-hammer.
func TestCacheConcurrentHitStorePurge(t *testing.T) {
	g := cacheTestGraph(t, 60)
	s, err := NewSolver(g, Config{C: 0.5, Iterations: 20, Norm: NormColumn})
	if err != nil {
		t.Fatal(err)
	}
	const sources = 24
	want := make([][]float64, sources)
	for q := range want {
		if want[q], err = s.Scores(q); err != nil {
			t.Fatal(err)
		}
	}
	cache := NewScoreCache(6 * vecBytes(g.N()))
	// A vector's stand-in bitmask is its first score's bits.
	opt := ServeOptions{Uphill: func(vec []float64) []uint64 { return []uint64{math.Float64bits(vec[0])} }}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 150; i++ {
				qs := []int{rng.Intn(sources), rng.Intn(sources), rng.Intn(sources)}
				R, _, up, _, err := s.ScoresSetServingCtx(context.Background(), qs, cache, 1, nil, opt)
				if err != nil {
					t.Error(err)
					return
				}
				for k, q := range qs {
					if up != nil && up[k] != nil && up[k][0] != math.Float64bits(want[q][0]) {
						t.Errorf("source %d got another vector's bitmask", q)
						return
					}
					for j := range R[k] {
						if math.Float64bits(R[k][j]) != math.Float64bits(want[q][j]) {
							t.Errorf("source %d entry %d: %v != %v", q, j, R[k][j], want[q][j])
							return
						}
					}
				}
			}
		}(int64(w))
	}
	var purger sync.WaitGroup
	purger.Add(1)
	go func() {
		defer purger.Done()
		for {
			select {
			case <-stop:
				return
			default:
				cache.Purge()
				_ = cache.Stats()
			}
		}
	}()
	wg.Wait()
	close(stop)
	purger.Wait()
	checkSieve(t, cache)
}
