# Local developer targets. `make ci` runs exactly what
# .github/workflows/ci.yml runs, in the same order.

GO ?= go

.PHONY: build test race bench bench-cpacache repro-identity alloc-guard fuzz-smoke serve loadtest server-smoke chaos-smoke mem-storm fmt fmt-check vet staticcheck vulncheck docs-check loc ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One pass of every benchmark — a smoke test that the bench harness
# still runs, not a measurement. pkg/cpacache is excluded here because
# bench-cpacache gives it its own (longer) smoke pass.
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x $$($(GO) list ./... | grep -v pkg/cpacache)

# Quick sanity pass over the cpacache hot paths. The speed ledger is
# `go run ./bench`; these benchmarks are for attributing a change to a path.
bench-cpacache:
	$(GO) test -run=NONE -bench=. -benchtime=100x -cpu 1,2 ./pkg/cpacache/

# Bit-identity of the reproduction: two Figure-7 sweeps (71 simulations
# each) whose CSV must hash to bench/testdata/fig7.sha256; the benchmark
# exits non-zero on a mismatch. A faster simulator has to leave every
# simulated statistic as it was, and this is the gate that says so outside
# the perf pipeline. The benchmark refuses GOMAXPROCS=1, so a single-core
# host prints and skips.
repro-identity:
	@if [ "$$(nproc)" -le 1 ]; then \
		echo "single-core host: go run ./bench refuses GOMAXPROCS=1; skipping repro-identity"; exit 0; fi; \
	$(GO) run ./bench -workload repro_fig7 -seconds 1

# Fuzz smoke: a short bounded pass over every fuzz target. Go allows one
# -fuzz pattern per invocation, so each target gets its own run.
# `make docs-check` fails when these lines and the declared fuzz targets
# disagree.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzRESPParse$$' -fuzztime=30s ./internal/resp/
	$(GO) test -run=NONE -fuzz='^FuzzRESPRoundTrip$$' -fuzztime=10s ./internal/resp/
	$(GO) test -run=NONE -fuzz='^FuzzVictimInMask$$' -fuzztime=10s ./pkg/plru/
	$(GO) test -run=NONE -fuzz='^FuzzTagCollisionFallback$$' -fuzztime=10s ./pkg/cpacache/
	$(GO) test -run=NONE -fuzz='^FuzzCollisionStorm$$' -fuzztime=10s ./pkg/cpacache/
	$(GO) test -run=NONE -fuzz='^FuzzGeometricEquivalence$$' -fuzztime=10s ./internal/xrand/

# Run the cache server on the default redis port (ctrl-C drains).
serve:
	$(GO) run ./cmd/cpacached -addr :6379 -policy bt

# Drive a running `make serve` with the default load mix.
loadtest:
	$(GO) run ./cmd/cpaload -addr 127.0.0.1:6379 -conns 4 -pipeline 32 \
		-requests 400000 -keyspace 20000 -value-size 128 -set-ratio 0.1 -zipf 1.1

# Server integration smoke: protocol conformance, in-process server
# tests, and the exec-based daemon end-to-end (SIGTERM drain) under -race.
server-smoke:
	$(GO) test -race -count=1 ./internal/resp/ ./internal/server/ ./internal/loadgen/ ./internal/faultinject/ ./cmd/cpacached/

# Chaos lane: the fault-injection unit tests plus the exec-based chaos
# smoke — a race-instrumented cpacached under injected accept errors,
# latency stalls, partial writes and resets, with connection caps and
# slow-client deadlines armed. Asserts the retrying load engine finishes
# its full budget with zero lost acknowledged writes, over-cap connects
# are refused, a client-triggered panic is contained, and the process
# still drains cleanly.
chaos-smoke: mem-storm
	$(GO) test -race -count=1 ./internal/faultinject/
	$(GO) test -race -count=1 -run '^TestDaemonChaosSmoke$$' -v ./cmd/cpacached/

# Memory-pressure chaos lane: a race-instrumented cpacached with a tiny
# -max-bytes cap stormed with 1 KB short-TTL values. Asserts the
# governor's three promises under fire: used_memory never exceeds the
# cap by more than the writers' in-flight entries, no acknowledged write
# is lost (-OOM refusals are requeued, never acked), and the server
# recovers to pressure_state:ok with ordinary writes flowing once the
# storm drains.
mem-storm:
	$(GO) test -race -count=1 -run '^TestDaemonMemStorm$$' -v ./cmd/cpacached/

# The hot-path allocation guards (testing.AllocsPerRun) run without -race:
# instrumentation skews the accounting. Alloc regressions fail here fast
# even on hosts too noisy for ns/op comparisons.
alloc-guard:
	$(GO) test -run 'ZeroAlloc|Allocs' ./pkg/cpacache/ ./pkg/cpapart/ ./pkg/plru/ ./internal/server/

# staticcheck / govulncheck run when installed and are skipped otherwise,
# so `make ci` works in hermetic containers; the CI lint job always runs
# them.
staticcheck:
	@if command -v staticcheck >/dev/null; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping"; fi

vulncheck:
	@if command -v govulncheck >/dev/null; then govulncheck ./...; \
	else echo "govulncheck not installed; skipping"; fi

fmt:
	gofmt -l -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Docs gate (cmd/doccheck): every relative link in *.md resolves, every
# ```go fence parses (full-file blocks must also be gofmt-clean), and vet
# stays green. CI runs this as its own job.
docs-check: vet
	$(GO) run ./cmd/doccheck .

# Code size: non-test Go lines per package, the benchmark (bench/) counted
# apart because a deletion pass may not touch it. `make ci` ends with this
# table so a PR that claims to simplify has a number to beat.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.*' -exec wc -l {} + | \
	awk '$$2 != "total" { d = $$2; sub(/^\.\//, "", d); sub(/\/[^\/]*$$/, "", d); n[d] += $$1 } \
		END { for (d in n) print n[d], d }' | sort -k2 | \
	awk '$$2 ~ /^bench(\/|$$)/ { b += $$1; next } { printf "%7d  %s\n", $$1, $$2; t += $$1 } \
		END { printf "%7d  total outside bench/\n%7d  bench/\n", t, b }'

ci: fmt-check vet staticcheck build race alloc-guard bench bench-cpacache repro-identity server-smoke chaos-smoke docs-check loc
