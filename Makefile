# Build/verification entry points. The tier-1 gate is `make check`:
# build + vet + the full test suite under the race detector. The race run
# is the canonical test run — it executes every test exactly once (the
# simulator is single-goroutine by design; the race detector guards the
# parallel experiment runner and the test harnesses). `make test` remains
# for quick iteration without race instrumentation.

GO ?= go
JOBS ?= 4
BIN = bin
SMOKE_FLAGS = -fig 4 -warmup 5000 -measure 20000 -jobs $(JOBS) -quiet

.PHONY: all build tools test vet lint race check ci bench smoke benchdiff baseline leakscan leaksearch kernelcheck conform chaos serve

all: build

build:
	$(GO) build ./...

# Build the CLI gates once into $(BIN); the leakscan/conform/smoke targets
# run these binaries instead of `go run`, so one compile serves every gate.
tools:
	$(GO) build -o $(BIN)/ ./cmd/benchtable ./cmd/benchdiff ./cmd/leakscan ./cmd/conformfuzz ./cmd/simserver ./cmd/traceconv ./cmd/tracediff

vet:
	$(GO) vet ./...

# Static analysis gate: vet + gofmt cleanliness + staticcheck. staticcheck
# is skipped with a notice when the binary is absent (local machines without
# it); CI installs a pinned version so the job always runs it.
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l found unformatted files:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "lint: staticcheck not installed, skipping (CI runs the pinned version)"; \
	fi

# Fast, race-free test run for local iteration.
test:
	$(GO) test ./...

# Canonical test run: the full suite under the race detector. This single
# pass already includes the kernel-equivalence oracle and the chaos
# self-tests; the kernelcheck/chaos targets below re-run just those subsets
# for focused iteration.
race:
	$(GO) test -race ./...

check: build vet race

# What CI invokes; kept separate from `check` so CI-only steps can be
# attached without changing the local gate. One race-instrumented suite
# pass (inside check) covers kernelcheck and chaos; the CLI gates reuse
# the binaries `tools` built. The host-performance benchmark is a module
# of its own (bench/go.mod), so `go test ./...` never builds it; its tests
# run here, because its traced run rebuilds machines the way sim.New does.
ci: check lint leakscan leaksearch conform
	$(GO) -C bench test ./...

# Resilience gate: the seeded chaos self-tests kill journaled bench,
# leakage, and conformance campaigns at randomized checkpoint appends
# (torn tail included), inject transient faults, resume, and assert the
# final deterministic payload is byte-identical to an uninterrupted run
# at 1 and 4 workers. (Also runs as part of `make race`.)
chaos:
	$(GO) test -run 'TestChaos' -count=1 ./internal/campaign ./internal/leakage ./internal/conform

bench:
	$(GO) test -bench=. -benchmem .

# Kernel-equivalence gate: the fast-forward scheduler must produce
# byte-identical fingerprints to the cycle-by-cycle reference stepper across
# the whole equivalence matrix (fault seeds, checking, interrupts and every
# 8-core PARSEC kernel included), and the wake audit must find no cycle the
# fast kernel would skip on which a core's state changes.
# (Also runs as part of `make race`.)
kernelcheck:
	$(GO) test -run 'TestKernelEquivalence|TestKernelSwitchMidRun|TestWakeAudit' -count=1 ./internal/sim ./internal/core

# Short-budget Figure-4 sweep producing the BENCH_smoke.json artifact the
# CI regression gate compares against the committed baseline.
# -comparekernels re-runs the sweep under the stepped kernel, fails on any
# divergence, and records both kernels' wall time in the artifact's host
# block so benchdiff trajectories show the fast-forward speedup.
smoke: tools
	$(BIN)/benchtable $(SMOKE_FLAGS) -comparekernels -benchjson BENCH_smoke.json -benchname smoke

benchdiff: smoke
	$(BIN)/benchdiff BENCH_baseline.json BENCH_smoke.json

# Security regression gate: scan the fixed smoke corpus of transient
# attacks against every registered defense and fail if any secure
# configuration leaks, any expected leak (undefended Base, designed
# threat-model gaps) stops leaking, or any trial errors. Writes the
# deterministic leakage-report/v1 artifact CI uploads next to the bench
# artifact.
leakscan: tools
	$(BIN)/leakscan -corpus smoke -trials 3 -jobs $(JOBS) -json LEAKAGE_smoke.json

# Feedback-driven attack search smoke: a fixed-seed, small-budget
# hill-climb over every template class against the full defense matrix.
# Fails (exit 1) if any searched candidate leaks through a defense the
# expected-outcome matrix says blocks it. The nightly workflow runs the
# same search at a deep budget with a journaled -resume.
leaksearch: tools
	$(BIN)/leakscan -search -search-budget 3 -seed 1 -trials 2 -jobs $(JOBS) -json SEARCH_smoke.json

# Conformance-fuzzing gate: a fixed-seed campaign of generated programs
# differentially checked against the golden interpreter across the full
# defense × consistency × kernel matrix. Fails on any divergence and writes
# the deterministic conform-report/v1 artifact CI uploads. Minimized
# reproducers for past finds live in internal/conform/corpus and run with
# the normal test suite.
conform: tools
	$(BIN)/conformfuzz -seed 1 -n 200 -jobs $(JOBS) -q -shrink -json CONFORM_smoke.json

# Regenerate the committed baseline (host block omitted so the artifact is
# byte-stable across machines). Run after intentional timing-model changes,
# and sanity-check the diff before committing.
baseline: tools
	$(BIN)/benchtable $(SMOKE_FLAGS) -benchjson BENCH_baseline.json -benchname smoke -benchhost=false

# Simulation-as-a-service (DESIGN.md §14): a long-running HTTP job server
# with content-addressed cell memoization and the HTML dashboard. Sweep
# jobs are gated against the committed baseline; the trends page reads the
# committed BENCH_*.json artifacts in the repo root.
serve: tools
	$(BIN)/simserver -addr :8080 -cache .simcache -journal-dir .simcache/journals \
		-history . -baseline BENCH_baseline.json
