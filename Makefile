# Developer entry points; `make ci` is exactly what .github/workflows/ci.yml
# runs.

GO ?= go

.PHONY: all build test race fmt vet lint lint-sarif lint-baseline bench-module hazardcheck cover fuzz bench perfgate perf-smoke baseline layerbench trace chaos fleet dst ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The repo's lint gate: go vet plus the igpulint analyzer suite
# (internal/analysis) — source rules and the documentation rules
# (exporteddoc, mdlink) alike — checked against lint/baseline.json. Drift
# fails in both directions — new findings and stale baseline entries.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/igpulint ./...

# SARIF export of the current findings (what the CI lint job uploads).
lint-sarif:
	$(GO) run ./cmd/igpulint -format sarif ./... > igpulint.sarif

# Refresh lint/baseline.json from the current findings. Every generated
# entry carries a placeholder "why" the drift check rejects until a human
# justifies or fixes it.
lint-baseline:
	$(GO) run ./cmd/igpulint -update-baseline

# The benchmark module: layerbench is a nested module, so the root
# `go test ./...` skips it; vet and test it on its own.
bench-module:
	cd layerbench && $(GO) vet ./... && $(GO) test ./...

# Verify every device × app × model schedule, placement and trace.
hazardcheck:
	$(GO) run ./cmd/hazardcheck

# Combined statement coverage of the execution engine and the framework it
# must stay byte-equivalent to; fails under 80%.
COVER_MIN ?= 80.0
cover:
	$(GO) test -coverprofile=coverage.out -coverpkg=./internal/engine,./internal/framework ./internal/engine ./internal/framework
	@total="$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}')"; \
	echo "engine+framework coverage: $$total% (minimum $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 >= min+0) ? 0 : 1 }' || \
		{ echo "coverage below $(COVER_MIN)%"; exit 1; }

# Short fuzz pass over the externally-facing parsers — the hazard-trace CSV
# reader and the NDJSON warm-handoff export reader (a malicious or buggy
# peer must quarantine, never panic its puller) — and over the batch
# simulator core against its per-access reference executor.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/hazard -run '^$$' -fuzz FuzzParseTrace -fuzztime $(FUZZTIME)
	$(GO) test ./internal/gpu -run '^$$' -fuzz FuzzBatchVsReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fleet -run '^$$' -fuzz FuzzReadExport -fuzztime $(FUZZTIME)

# One full iteration of every engine benchmark: cold vs warm advisory
# batches, characterization and exploration, each serial vs engine. The
# serial-vs-engine sweep lives in perfgate (sweep/serial, sweep/engine).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/engine

# One quick-scale perfgate run: writes BENCH_<timestamp>.json and prints the
# human table (see docs/BENCHMARKS.md for the methodology).
perfgate:
	$(GO) run ./cmd/perfgate -run -quick

# The CI perf job: run the quick suite, then compare against the committed
# baseline in warn-only mode (absolute medians are host-dependent, so a
# shared-runner comparison informs but never fails the build).
perf-smoke:
	$(GO) run ./cmd/perfgate -run -quick -out BENCH_ci.json
	$(GO) run ./cmd/perfgate -baseline bench/baseline.json -candidate BENCH_ci.json -warn-only

# Refresh the committed quick-scale baseline (run on a quiet machine).
baseline:
	$(GO) run ./cmd/perfgate -update-baseline

# The end-to-end benchmark declared by BENCHMARK.json: one seeded workload
# (bringup, sweep or serve) for SECONDS seconds, output checks included. It
# builds into .bench_build; see docs/BENCHMARKS.md for when to use it
# instead of perfgate.
W ?= sweep
SEED ?= 1
SECONDS ?= 30
layerbench:
	bash layerbench/run.sh --workload $(W) --seed $(SEED) --seconds $(SECONDS)

# Observability smoke: the quick-scale 45-combo sweep (3 devices x 3 apps x
# 5 models) recorded as a Chrome trace_event file — open trace.json in
# chrome://tracing or https://ui.perfetto.dev.
trace:
	$(GO) run ./cmd/advisor -quick -sweep -trace trace.json

# Chaos suite: the 45-combo sweep through the retrying client against an
# advisord with fault injection active, under the race detector. Schedules
# carry fixed seeds (internal/chaos), so runs are reproducible.
chaos:
	$(GO) test -race ./internal/chaos/

# Fleet storm harness: a 3-shard advisord fleet under closed-loop load while
# a cold shard joins (warm handoff) and another is killed mid-run, plus the
# same load shape under the chaos suite's flaky-engine schedule — all under
# the race detector. Runs the short smoke profile by default (correctness
# under churn lives in `make dst` now); FLEET_STORM=full restores the long
# window. FLEET_SUMMARY receives the latency artifact CI uploads.
FLEET_SUMMARY ?= fleet-summary.json
fleet:
	FLEET_SUMMARY=$(FLEET_SUMMARY) $(GO) test -race -run 'TestFleetStorm' -v ./internal/fleet/

# Deterministic simulation suite: DST_SEEDS seeded fleet scenarios (crash,
# restart, partition, link faults, drain, warm handoff) in virtual time,
# invariant-checked after every step, under the race detector. A failing
# seed is shrunk and its repro artifact written to DST_ARTIFACT; replay it
# with the `go test ./internal/dst -run TestDSTSeedSweep -dst.seed=N`
# command the artifact carries.
DST_SEEDS ?= 200
DST_ARTIFACT ?= dst-repro.json
dst:
	DST_ARTIFACT=$(DST_ARTIFACT) $(GO) test -race -count=1 ./internal/dst -dst.seeds=$(DST_SEEDS)

ci: fmt vet lint build bench-module race cover fuzz hazardcheck trace chaos fleet dst perf-smoke
