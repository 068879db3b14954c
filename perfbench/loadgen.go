package main

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// arrivals is how many requests an open loop at rate sends in window.
func arrivals(rate float64, window time.Duration) int {
	return int(math.Round(rate * window.Seconds()))
}

// poissonSchedule returns the send offsets of a Poisson arrival process at
// rate over [0, window), conditioned on its expected count: that many
// offsets drawn uniformly and sorted. Conditioning keeps the offered load
// identical across seeds while the spacing stays Poisson-random. The same
// seed gives the same schedule.
func poissonSchedule(seed int64, rate float64, window time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, arrivals(rate, window))
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// closedLoop runs clients goroutines that each send their next request as
// soon as the previous one returns, until the window closes. Requests are
// numbered from 0 in the order they are claimed; the result is indexed by
// that number.
func closedLoop(ctx context.Context, clients int, window time.Duration, send func(context.Context, int) observation) []observation {
	deadline := time.Now().Add(window)
	var next atomic.Int64
	per := make([][]observation, clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				o := send(ctx, i)
				o.idx = i
				per[c] = append(per[c], o)
			}
		}()
	}
	wg.Wait()
	obs := make([]observation, next.Load())
	for _, list := range per {
		for _, o := range list {
			obs[o.idx] = o
		}
	}
	return obs
}

// openLoop sends request i at start+sched[i] whatever earlier requests are
// doing, with at most maxInflight outstanding. It returns the observations,
// timed from each request's due time, and how late the generator sent each
// one.
func openLoop(ctx context.Context, sched []time.Duration, maxInflight int, send func(context.Context, int) observation) ([]observation, []time.Duration) {
	obs := make([]observation, len(sched))
	lags := make([]time.Duration, len(sched))
	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range sched {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		lags[i] = time.Since(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			o := send(ctx, i)
			o.idx, o.sched = i, due
			obs[i] = o
		}()
	}
	wg.Wait()
	return obs, lags
}

// forEach runs fn(0), …, fn(n-1) on workers goroutines and returns the
// first error. Set-up warm-up and the after-window checks use it.
func forEach(n, workers int, fn func(j int) error) error {
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= n {
					return
				}
				if err := fn(j); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
