package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"time"

	"ceps"
	"ceps/internal/obs"
)

// defaultShutdownGrace bounds how long in-flight HTTP requests may run
// after a shutdown signal before the listeners are torn down hard; the
// -shutdown-grace flag overrides it.
const defaultShutdownGrace = 5 * time.Second

// maxQueryBody bounds a POST request body. Query sets are a few dozen ids
// or labels; anything near this limit is abuse, not a query.
const maxQueryBody = 1 << 20

// queryError is the JSON error body of the query endpoints.
type queryError struct {
	Error string `json:"error"`
}

// traceHandler is an HTTP handler that runs inside an already-opened
// request trace. The withTrace wrapper has stamped X-Ceps-Trace-Id on
// the response headers before the handler body runs.
type traceHandler func(ctx context.Context, span *ceps.Span, w http.ResponseWriter, r *http.Request)

// withTrace opens the request's root span before anything else touches
// the request — before the body is read, before decoding, before
// admission — so every response carries X-Ceps-Trace-Id and is linkable
// to its retained trace. That explicitly includes decode failures (400,
// 405, 413) and engine sheds (429, 503), which previously raced past the
// header stamp.
func withTrace(eng *ceps.Engine, name string, h traceHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, span := eng.StartTrace(r.Context(), name)
		defer span.End()
		if id := span.TraceID(); id != "" {
			w.Header().Set("X-Ceps-Trace-Id", id)
		}
		h(ctx, span, w, r)
	}
}

// newQueryMux builds the public query API:
//
//	GET  /v1/query?sources=1,2[&k=N][&budget=N][&timeout_ms=N]...  JSON result
//	POST /v1/query {"sources":[1,2],"k":N,...}                     JSON result
//	POST /v1/batch {"queries":[{...},{...}]}                       JSON results
//	POST /v1/replace {"team":[...],"departing":[...],...}          JSON ranking
//	GET  /healthz                                                  liveness
//
// The query endpoints speak the typed queryRequestV1 schema (see v1.go),
// which is also the CLI -queries-file format. Per-request overrides
// never mutate the engine's configuration. The admin surface (metrics,
// pprof) deliberately lives on its own mux/port so the profiler is never
// exposed on the public address.
func newQueryMux(eng *ceps.Engine, g *ceps.Graph, cfg ceps.Config, queryTimeout time.Duration) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// Same version string as ceps_build_info and ceps -version, so a
		// rollout can be confirmed from the query port too. Probes grep
		// for the "ok" prefix.
		io.WriteString(w, "ok "+ceps.Version+"\n")
	})
	mux.HandleFunc("/v1/query", withTrace(eng, "http_query", handleQueryV1(eng, g, cfg, queryTimeout)))
	mux.HandleFunc("/v1/batch", withTrace(eng, "http_batch", handleBatchV1(eng, g, cfg, queryTimeout)))
	mux.HandleFunc("/v1/replace", withTrace(eng, "http_replace", handleReplaceV1(eng, g, queryTimeout)))
	return mux
}

// queryStatus maps the library's error taxonomy onto HTTP statuses. The
// overload case is first: admission sheds wrap the deadline identities
// (so callers' errors.Is deadline checks still match), but over HTTP the
// actionable signal is "back off and retry", not "gateway timeout".
func queryStatus(err error) int {
	switch {
	case errors.Is(err, ceps.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ceps.ErrUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, ceps.ErrBadQuery) || errors.Is(err, ceps.ErrBadConfig):
		return http.StatusBadRequest
	case errors.Is(err, ceps.ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, ceps.ErrCanceled) || errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusInternalServerError
	}
}

// retryAfterSeconds renders an admission controller's retry hint as a
// Retry-After header value: whole seconds, rounded up, at least 1.
func retryAfterSeconds(err error) string {
	secs := int64(1)
	if hint, ok := ceps.RetryAfterHint(err); ok && hint > 0 {
		if s := int64(math.Ceil(hint.Seconds())); s > secs {
			secs = s
		}
	}
	return strconv.FormatInt(secs, 10)
}

func writeQueryError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", retryAfterSeconds(err))
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(queryError{Error: err.Error()})
}

// adminOptions assembles the admin mux options shared by serve mode and
// -admin: build info on /healthz, retained traces, live resilience state
// (admission queue, breaker) on /debug/vars when the engine has a
// resilience layer, and the flight-recorder endpoints (/debug/slo,
// /debug/flight, /debug/dashboard) when -flight-dir armed one.
func adminOptions(eng *ceps.Engine) []obs.AdminOption {
	opts := []obs.AdminOption{
		obs.WithTraceStore(eng.TraceStore()),
		obs.WithBuildInfo(ceps.Version),
	}
	if _, ok := eng.ResilienceStats(); ok {
		opts = append(opts, obs.WithDebugVar("resilience", func() any {
			st, _ := eng.ResilienceStats()
			return st
		}))
	}
	if fr := eng.FlightRecorder(); fr != nil {
		opts = append(opts, obs.WithFlightRecorder(fr))
	}
	return opts
}

// serveListeners runs the query API on queryLn and, when adminLn is
// non-nil, the admin surface (metrics, health, pprof) on adminLn, until
// ctx is canceled; then both servers drain gracefully for up to grace.
// It owns and closes the listeners.
func serveListeners(ctx context.Context, eng *ceps.Engine, g *ceps.Graph, cfg ceps.Config, queryTimeout, grace time.Duration, queryLn, adminLn net.Listener, stderr io.Writer) int {
	servers := []*http.Server{{
		Handler:           newQueryMux(eng, g, cfg, queryTimeout),
		ReadHeaderTimeout: 10 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}}
	listeners := []net.Listener{queryLn}
	fmt.Fprintf(stderr, "serving queries on http://%s/v1/query\n", queryLn.Addr())
	if adminLn != nil {
		servers = append(servers, &http.Server{
			Handler:           obs.AdminMux(eng.Metrics(), adminOptions(eng)...),
			ReadHeaderTimeout: 10 * time.Second,
			MaxHeaderBytes:    1 << 20,
		})
		listeners = append(listeners, adminLn)
		fmt.Fprintf(stderr, "admin endpoint on http://%s/metrics\n", adminLn.Addr())
	}

	errc := make(chan error, len(servers))
	for i, srv := range servers {
		go func(srv *http.Server, ln net.Listener) {
			errc <- srv.Serve(ln)
		}(srv, listeners[i])
	}

	code := exitOK
	select {
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			code = exitDeadline
		} else {
			code = exitSignal
		}
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "ceps:", err)
			code = exitError
		}
	}
	shCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	for _, srv := range servers {
		srv.Shutdown(shCtx)
	}
	return code
}

// startAdmin starts the admin endpoint for a one-shot or batch run and
// returns its shutdown function. The endpoint exists so profiles and
// metrics can be pulled from a long single run (a big pre-partition, a
// wide batch) while it executes.
func startAdmin(addr string, eng *ceps.Engine, grace time.Duration, stderr io.Writer) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("admin endpoint: %w", err)
	}
	srv := &http.Server{
		Handler:           obs.AdminMux(eng.Metrics(), adminOptions(eng)...),
		ReadHeaderTimeout: 10 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}
	go srv.Serve(ln)
	fmt.Fprintf(stderr, "admin endpoint on http://%s/metrics\n", ln.Addr())
	return func() {
		shCtx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		srv.Shutdown(shCtx)
	}, nil
}
