package ceps_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ceps"
	"ceps/internal/obs"
)

// TestAdminHammer drives the whole admin surface under -race while the
// engine is busy: query workers, a Reconfigure loop, and scrapers hitting
// /metrics, /debug/traces, /debug/vars, /debug/slo, and /debug/flight
// concurrently. Every /metrics body must stay a valid exposition — a torn
// read under load is a data race the detector may miss but the parser
// catches.
func TestAdminHammer(t *testing.T) {
	ds := smallDataset(t)
	eng := newEngine(t, ds.Graph,
		ceps.WithConfig(quickConfig()),
		ceps.WithCache(8<<20),
		ceps.WithTracing(ceps.TracingOptions{SampleRate: 1}),
		ceps.WithFlightRecorder(ceps.FlightRecorderOptions{
			Dir:        t.TempDir(),
			CPUProfile: -1,
		}))
	defer eng.Close()

	srv := httptest.NewServer(ceps.AdminMux(eng.Metrics(),
		ceps.WithTraceStore(eng.TraceStore()),
		ceps.WithFlightAdmin(eng.FlightRecorder()),
		ceps.WithBuildInfo(ceps.Version),
		ceps.WithDebugVar("resilience", func() any {
			st, _ := eng.ResilienceStats()
			return st
		})))
	defer srv.Close()

	queries := [][]int{
		{ds.Repository[0][0], ds.Repository[1][0]},
		{ds.Repository[0][1], ds.Repository[2][0]},
	}
	var stop atomic.Bool
	var wg sync.WaitGroup

	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if _, err := eng.Do(context.Background(), queries[(w+i)%len(queries)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		cfg := quickConfig()
		for i := 0; !stop.Load(); i++ {
			cfg.RWR.Iterations = 25 + i%2 // flips the cache-keyed config
			if err := eng.Reconfigure(cfg); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	get := func(path string) ([]byte, int) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Error(err)
			return nil, 0
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
			return nil, 0
		}
		return body, resp.StatusCode
	}
	for _, path := range []string{"/metrics", "/debug/traces", "/debug/vars", "/debug/slo", "/debug/flight"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for !stop.Load() {
				body, code := get(path)
				if body == nil {
					return
				}
				if code != http.StatusOK {
					t.Errorf("%s: status %d under load", path, code)
					return
				}
				if path == "/metrics" {
					if _, _, err := obs.ValidateExposition(bytes.NewReader(body)); err != nil {
						t.Errorf("/metrics tore under load: %v", err)
						return
					}
				}
			}
		}(path)
	}

	time.Sleep(500 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
}
