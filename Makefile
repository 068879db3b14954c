# Tier-1 gate: `make check` is what CI and pre-merge runs. It must stay
# green — gofmt, vet, build, the full test suite under the race detector
# (including the cache-purge race hammer), and a short fuzz smoke over the
# text parsers.

GO ?= go
FUZZTIME ?= 10s

.PHONY: check fmt vet build test race race-hammer obs-smoke trace-smoke fuzz-smoke kernel-smoke chaos-smoke coalesce-smoke replace-smoke precompute-smoke flight-smoke bench bench-replace clean

check: fmt vet build race race-hammer trace-smoke fuzz-smoke kernel-smoke chaos-smoke coalesce-smoke replace-smoke precompute-smoke flight-smoke

# Fails when any tracked Go file is not gofmt-clean. Listing tracked files
# only keeps the git-ignored .bench_build/ out of the check.
fmt:
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports:"; echo "$$unformatted"; exit 1; fi

# The arm64 pass vets the pure-Go sweep dispatch that builds wherever the
# amd64 assembly is absent; the amd64 pass runs asmdecl over the assembly.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Repeated runs of the purge-vs-in-flight-solve regression tests and the
# engine-level Reconfigure hammer under the race detector. These are the
# tests that caught (and now pin) the stale-store cache bug. The resolver
# table covers every cache/coalescer/artifact/pool combination of the
# Step-1 serving path, and the bitmask test the uphill bitmasks stored
# entries carry (one build under concurrent first hits). The engine run includes Fast CePS fallbacks building
# the shared full-graph runner under contention beside Reconfigure. The
# extract run pins the pooled per-query EXTRACT scratch against cross-call
# sharing.
race-hammer:
	$(GO) test -race -count=4 ./internal/rwr -run 'TestFinishAfterPurgeDropsStore|TestPurgeBetweenFlightsNoDeadSpace|TestServingResolverTable|TestCacheUphillBitmask'
	$(GO) test -race -count=10 ./internal/rwr -run 'TestCacheConcurrentHitStorePurge'
	$(GO) test -race -count=4 . -run 'TestReconfigurePurgeRace|TestEngineConcurrentReconfigure|TestFastFallbackConcurrentSharedRunner'
	$(GO) test -race -count=10 ./internal/extract -run 'TestExtractConcurrentMatchesSequential'

# Scrape /metrics through the real admin mux and fail on malformed
# Prometheus exposition (plus the engine-level metric assertions).
obs-smoke:
	$(GO) test -count=1 ./internal/obs -run 'TestAdminEndpointSmoke'
	$(GO) test -count=1 . -run 'TestEngineStageTimingsAndMetrics|TestEngineSlowQueryLog|TestFunnelObservationTable'
	$(GO) test -count=1 ./cmd/ceps -run 'TestServeListeners|TestQueryMux'

# End-to-end tracing smoke: serve a traced fast-mode engine, follow one
# query's X-Ceps-Trace-Id through /debug/traces, validate the span tree,
# the waterfall view, and the exposition's new trace/runtime series; plus
# the engine-level span, bit-identity and cancellation regressions, and
# the trace-store race hammer under the race detector.
trace-smoke:
	$(GO) test -count=1 ./internal/obs -run 'TestSpanTreeAndStore|TestSamplingRules|TestTraceHandlerJSON|TestTraceViewHandlerHTML|TestAdminMuxMountsTraceRoutes|TestRegisterRuntimeMetrics'
	$(GO) test -count=1 . -run 'TestEngineTraceSpans|TestTracingBitIdentical|TestTraceCancellation|TestSlowQueryLogTraceFields|TestTracedMetricsExposition'
	$(GO) test -race -count=2 . -run 'TestTraceStoreRaceHammer'
	$(GO) test -count=1 ./cmd/ceps -run 'TestTraceSmoke|TestTraceFlagValidation'

# Short fuzz passes over the graph parsers, the v1 query decoders (the
# /v1/query body and GET parameters, the /v1/batch envelope) and the
# /v1/replace decoder, the precompute artifact reader (file images and
# index.json), and EXTRACT's key-path DP and whole Table 4 loop against
# their references on fuzzed tied-score graphs; crashers land in
# testdata/fuzz and fail `make test` from then on.
fuzz-smoke:
	$(GO) test ./internal/graph -run='^$$' -fuzz=FuzzDecode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/graph -run='^$$' -fuzz=FuzzReadEdgeList -fuzztime=$(FUZZTIME)
	$(GO) test ./cmd/ceps -run='^$$' -fuzz=FuzzQueryRequest -fuzztime=$(FUZZTIME)
	$(GO) test ./cmd/ceps -run='^$$' -fuzz=FuzzReplaceRequest -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/artifact -run='^$$' -fuzz=FuzzArtifactDecode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/artifact -run='^$$' -fuzz=FuzzArtifactIndex -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/extract -run='^$$' -fuzz=FuzzKeyPath -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/extract -run='^$$' -fuzz=FuzzExtract -fuzztime=$(FUZZTIME)

# Chaos suite under the race detector: every fault-injection point fires
# at least once and must surface as a typed error or a Degraded-marked
# answer — never a panic, hang, or silent wrong answer — plus the
# resilience integration tests (bit-identity when disabled, admission
# sheds, breaker lifecycle through the engine, pool-wait shed hygiene),
# the request funnel's exits × query types table, and the HTTP overload
# contract.
chaos-smoke:
	$(GO) test -race -count=1 . -run 'TestChaos|TestResilience|TestPoolWaitShed|TestFunnelObservationTable'
	$(GO) test -race -count=1 ./internal/resilience
	$(GO) test -race -count=1 ./internal/fault
	$(GO) test -race -count=1 ./cmd/ceps -run 'TestQueryStatusTable|TestWriteQueryErrorRetryAfter|TestQueryMuxPost|TestQueryMuxOverloadResponse'

# Quick pass over the Step-1 kernel grid (2 reps per cell): fails unless
# one blocked Q=8 solve is at least 2x faster than 8 sequential scalar
# solves.
kernel-smoke:
	RWR_KERNEL_REPS=2 $(GO) test -run '^TestRWRKernelSmoke$$' -count=1 .

# Coalescing smoke: the two-arm comparison at smoke scale (panels must
# actually form, answers must stay bit-identical, throughput must not
# regress), the engine-level bit-identity/shed/hammer regressions under
# the race detector, and the v1 HTTP surface incl. the trace-id-on-every-
# response contract.
coalesce-smoke:
	$(GO) test -count=1 . -run 'TestCoalesceSmoke'
	$(GO) test -race -count=1 . -run 'TestEngineCoalesc'
	$(GO) test -race -count=1 ./internal/rwr -run 'TestCoalesce'
	$(GO) test -count=1 ./cmd/ceps -run 'TestV1|TestTraceIDOnEveryPath|TestReadQueryRequests'

# Subteam-replacement smoke: the title-paper workload on a tiny substrate.
# Floors on rank stability (warm repeats reproduce the ranking from the
# cache, bit-identical across serving configurations) and panel usage
# (blocked kernel, cold misses, warm hits), the top-N certificate on an
# artifact-backed engine, plus the core ranking and HTTP/CLI surface
# tests under the race detector.
replace-smoke:
	$(GO) test -count=1 . -run 'TestReplaceSmoke|TestReplaceBitIdentical'
	$(GO) test -race -count=1 . -run 'TestEngineReplaceSubteam|TestReplaceReconfigureHammer'
	$(GO) test -race -count=1 ./internal/core -run 'TestReplaceSubteam|TestCertifiedTopN|TestSelectExactRule'
	$(GO) test -count=1 . -run 'TestReplaceCertifiedOnArtifactEngine'
	$(GO) test -count=1 ./cmd/ceps -run 'TestDecodeReplaceRequestV1|TestV1Replace|TestRunReplaceVerb'

# Precompute-tier smoke: golden artifact-vs-iterative identity on all
# three normalizations, the Reconfigure invalidation regression, the
# refusal of older dense-class directories, the bypass log firing only on
# a real mismatch, the artifact-vs-Reconfigure race hammer, cepspre
# build/verify/corruption round-trips, and the cold-start floor (artifact
# hit rate >= 0.9, artifact-served cold pass within 2x of warm-cache
# latency).
precompute-smoke:
	$(GO) test -count=1 . -run 'TestArtifactGoldenAllNorms|TestArtifactFastModeServing|TestArtifactReconfigureInvalidation|TestArtifactDirRejectsDamage|TestArtifactDirRejectsDenseClass|TestArtifactMismatchBypasses|TestArtifactBypassLogOnlyOnMismatch|TestPrecomputeSmoke'
	$(GO) test -race -count=2 . -run 'TestArtifactReconfigureRaceHammer'
	$(GO) test -race -count=1 ./internal/artifact
	$(GO) test -count=1 ./cmd/cepspre

# Flight-recorder smoke: the chaos-to-bundle pipeline (injected solve
# delays breach the latency objective, exactly one debounced bundle with
# profiles, traces, and a valid metrics snapshot), the armed-overhead and
# bit-identity floors, the slow-log field-set regression, the admin
# surface hammered under the race detector, and the `ceps diag` CLI
# round-trip.
flight-smoke:
	$(GO) test -count=1 . -run 'TestFlightSmoke|TestFlightOverhead'
	$(GO) test -race -count=1 . -run 'TestAdminHammer'
	$(GO) test -race -count=1 ./internal/obs -run 'TestSLO|TestObjective|TestSpike|TestDebounce|TestTrigger|TestBundle|TestFlight|TestNilFlight|TestSlowQueryEntryFieldSet'
	$(GO) test -count=1 ./cmd/ceps -run 'TestDiag|TestVersionFlag|TestHealthzCarriesVersion'

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# Subteam-replacement evaluation (held-out co-author recovery, replace
# ranker vs the plain center-piece baseline over identical pools) written
# to BENCH_replace.json, which is checked in.
bench-replace:
	$(GO) run ./cmd/cepsbench -exp replace -scale 0.5 -replace-out $(CURDIR)/BENCH_replace.json

clean:
	$(GO) clean ./...
