package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ceps"
	"ceps/internal/fault"
)

// --- Overload: serving resilience under 2x-capacity closed-loop load ----
//
// The experiment drives one engine at twice its measured capacity with a
// fleet of paced closed-loop clients and a client-side latency SLO, once
// with the resilience layer off and once with it on. Off, every request
// is accepted, the pool queue grows to the client count, and queueing
// delay pushes nearly all answers past the SLO: throughput survives but
// goodput (answers within the SLO) collapses. On, admission control
// bounds the queue, sheds the excess with 429-style overload errors, and
// the admitted fraction keeps its latency — goodput stays near capacity.

// OverloadArm is the outcome of one arm (resilience off or on).
type OverloadArm struct {
	Resilience bool `json:"resilience"`
	// Attempted..Errored account for every request exactly once.
	Attempted int64 `json:"attempted"`
	// OK are answers delivered within the client SLO.
	OK int64 `json:"ok"`
	// Late are answers delivered, but past the SLO (wasted work).
	Late int64 `json:"late"`
	// Shed are requests refused by admission control or the pool with a
	// typed overload error (the client can retry elsewhere immediately).
	Shed int64 `json:"shed"`
	// Degraded are answers served at reduced fidelity (breaker open).
	Degraded int64 `json:"degraded"`
	// Errored are failures that are neither sheds nor SLO misses.
	Errored int64 `json:"errored"`
	// GoodputQPS is OK answers per second of wall time.
	GoodputQPS float64 `json:"goodput_qps"`
	// GoodputVsCapacity is GoodputQPS / the measured capacity.
	GoodputVsCapacity float64 `json:"goodput_vs_capacity"`
	// P50MS/P99MS are latency quantiles over delivered answers (OK+Late).
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
}

// OverloadResult is the full two-arm comparison.
type OverloadResult struct {
	Workers     int     `json:"workers"`
	Clients     int     `json:"clients"`
	SoloMS      float64 `json:"solo_ms"`
	CapacityQPS float64 `json:"capacity_qps"`
	OfferedQPS  float64 `json:"offered_qps"`
	SLOMS       float64 `json:"slo_ms"`
	DurationS   float64 `json:"duration_s"`

	Off OverloadArm `json:"off"`
	On  OverloadArm `json:"on"`
}

// Overload runs the closed-loop overload comparison: clients paced to
// 2x measured capacity for duration, solve time pinned by an injected
// per-solve delay so capacity is deterministic across machines.
func Overload(s *Setup, workers, clients int, solveDelay, duration time.Duration) (*OverloadResult, error) {
	if workers <= 0 || clients <= 0 || solveDelay <= 0 || duration <= 0 {
		return nil, fmt.Errorf("overload: workers, clients, solveDelay and duration must be positive")
	}
	// Pin the per-request service time: every solve sleeps solveDelay, so
	// the interesting quantity — queueing delay — dominates real compute
	// regardless of dataset scale or host speed.
	restore := fault.SetActiveInjector(fault.NewInjector(fault.Injection{
		Point: fault.InjectSolveDelay,
		Delay: solveDelay,
	}))
	defer restore()

	rng := s.rng(23)
	queries := make([][]int, 64)
	for i := range queries {
		q, err := s.drawQueries(rng, 2)
		if err != nil {
			return nil, err
		}
		queries[i] = q
	}
	cfg := s.Base
	cfg.Budget = 10

	// Calibrate: solo latency of a warmed engine gives the service time;
	// workers of them run in parallel, so capacity = workers / solo.
	solo, err := overloadSolo(s, cfg, queries, workers)
	if err != nil {
		return nil, err
	}
	capacity := float64(workers) / solo.Seconds()
	slo := 5 * solo
	out := &OverloadResult{
		Workers:     workers,
		Clients:     clients,
		SoloMS:      1e3 * solo.Seconds(),
		CapacityQPS: capacity,
		OfferedQPS:  2 * capacity,
		SLOMS:       1e3 * slo.Seconds(),
		DurationS:   duration.Seconds(),
	}

	for _, resilient := range []bool{false, true} {
		opts := []ceps.Option{ceps.WithConfig(cfg), ceps.WithWorkers(workers)}
		if resilient {
			// One admission slot per pool worker and a queue of the same
			// depth: an admitted query waits at most ~one service time
			// before a worker frees up, keeping admitted latency well
			// inside the SLO while the rest is shed.
			opts = append(opts, ceps.WithResilience(ceps.ResilienceOptions{
				MaxConcurrent: workers,
				MaxQueue:      workers,
			}))
		}
		eng, err := ceps.NewEngine(s.Dataset.Graph, opts...)
		if err != nil {
			return nil, err
		}
		arm := runOverloadArm(eng, queries, clients, 2*capacity, slo, duration)
		arm.Resilience = resilient
		arm.GoodputVsCapacity = arm.GoodputQPS / capacity
		if resilient {
			out.On = arm
		} else {
			out.Off = arm
		}
	}
	return out, nil
}

// overloadSolo measures the unloaded per-request latency on a throwaway
// engine (same options as the off arm), warming once first.
func overloadSolo(s *Setup, cfg ceps.Config, queries [][]int, workers int) (time.Duration, error) {
	eng, err := ceps.NewEngine(s.Dataset.Graph, ceps.WithConfig(cfg), ceps.WithWorkers(workers))
	if err != nil {
		return 0, err
	}
	if _, err := eng.Do(context.Background(), queries[0]); err != nil {
		return 0, err
	}
	const probes = 8
	start := time.Now()
	for i := 0; i < probes; i++ {
		if _, err := eng.Do(context.Background(), queries[i%len(queries)]); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / probes, nil
}

// runOverloadArm drives one engine with paced closed-loop clients and
// classifies every attempt.
func runOverloadArm(eng *ceps.Engine, queries [][]int, clients int, offeredQPS float64, slo, duration time.Duration) OverloadArm {
	var arm OverloadArm
	interval := time.Duration(float64(clients) / offeredQPS * float64(time.Second))
	stop := time.Now().Add(duration)

	var mu sync.Mutex
	var delivered []float64 // ms, OK + Late
	var attempted, ok, late, shed, degraded, errored atomic.Int64

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Stagger starts across one interval so the fleet's arrivals
			// are spread, not a synchronized burst.
			time.Sleep(time.Duration(c) * interval / time.Duration(clients))
			for i := 0; time.Now().Before(stop); i++ {
				next := time.Now().Add(interval)
				q := queries[(c*31+i)%len(queries)]
				attempted.Add(1)
				t0 := time.Now()
				res, err := eng.Do(context.Background(), q)
				lat := time.Since(t0)
				switch {
				case err == nil:
					if res.Degraded != nil {
						degraded.Add(1)
					}
					if lat <= slo {
						ok.Add(1)
					} else {
						late.Add(1)
					}
					mu.Lock()
					delivered = append(delivered, 1e3*lat.Seconds())
					mu.Unlock()
				case fault.ShedReason(err) != "":
					shed.Add(1)
				default:
					errored.Add(1)
				}
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
			}
		}(c)
	}
	wg.Wait()

	arm.Attempted = attempted.Load()
	arm.OK = ok.Load()
	arm.Late = late.Load()
	arm.Shed = shed.Load()
	arm.Degraded = degraded.Load()
	arm.Errored = errored.Load()
	arm.GoodputQPS = float64(arm.OK) / duration.Seconds()
	sort.Float64s(delivered)
	arm.P50MS = quantileMS(delivered, 0.50)
	arm.P99MS = quantileMS(delivered, 0.99)
	return arm
}

// quantileMS reads the q-quantile from an ascending slice.
func quantileMS(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// RenderOverload prints the two-arm comparison.
func RenderOverload(w io.Writer, r *OverloadResult) {
	fmt.Fprintf(w, "overload: %d workers, %d clients, solo %.1fms, capacity %.0f qps, offered %.0f qps (2x), SLO %.0fms, %.1fs/arm\n",
		r.Workers, r.Clients, r.SoloMS, r.CapacityQPS, r.OfferedQPS, r.SLOMS, r.DurationS)
	fmt.Fprintf(w, "%-12s %9s %7s %7s %7s %9s %9s %8s %8s %8s\n",
		"resilience", "attempted", "ok", "late", "shed", "degraded", "errored", "goodput", "p50ms", "p99ms")
	for _, a := range []OverloadArm{r.Off, r.On} {
		mode := "off"
		if a.Resilience {
			mode = "on"
		}
		fmt.Fprintf(w, "%-12s %9d %7d %7d %7d %9d %9d %7.0f%% %8.1f %8.1f\n",
			mode, a.Attempted, a.OK, a.Late, a.Shed, a.Degraded, a.Errored,
			100*a.GoodputVsCapacity, a.P50MS, a.P99MS)
	}
}
