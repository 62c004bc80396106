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
PARSEC_FLAGS = -fig 7 -warmup 5000 -measure 20000 -jobs $(JOBS) -quiet
LEAK_FLAGS = -corpus smoke -trials 3 -jobs $(JOBS)
SEARCH_FLAGS = -search -search-budget 3 -seed 1 -trials 2 -jobs $(JOBS)
SMOKE_CACHE = $(BIN)/smoke-cache

.PHONY: all build tools test vet lint loc race check ci benchtest benchsmoke bench smoke benchdiff baseline baselinecheck leakscan leaksearch kernelcheck conform chaos serve

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

# Code size: the non-test Go lines outside the bench/ module, the number
# the ROADMAP's simplicity aim tracks, and the test Go lines beside them.
# CI's lint job prints both.
loc:
	@echo "$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec cat {} + | wc -l) non-test Go lines outside bench/"
	@echo "$$(find . -name '*_test.go' ! -path './bench/*' -exec cat {} + | wc -l) test Go lines outside bench/"

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

# Every gate CI runs on a push, each once: CI runs these targets in
# separate jobs (check, benchtest and benchsmoke, lint, smoke, leakscan and
# leaksearch, conform). One race-instrumented suite pass (inside check)
# covers kernelcheck and chaos; the CLI gates reuse the binaries `tools`
# built, and the gates with a committed baseline cmp against it.
ci: check lint benchtest benchsmoke smoke leakscan leaksearch conform

# The host-performance benchmark is a module of its own (bench/go.mod), so
# `go test ./...` never builds it. Its traced run rebuilds machines the way
# sim.New does, so a change to memsys or core can break it without the root
# tests noticing; this vets and tests it (about 3 s).
benchtest:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# One short pass of every host-benchmark workload (about 5 s), so the
# benchmark's own oracles run on each push: the row digests in
# bench/expected.json, the stepped-vs-fast trials and the leak verdicts.
# hostbench exits 0 even when a check fails, so this fails unless each of
# the three result lines reads "correct":true.
benchsmoke:
	@mkdir -p $(BIN)
	bash bench/run.sh --workload all --seed 1 --seconds 1 > $(BIN)/benchsmoke.txt
	@n=$$(grep -c '"correct":true' $(BIN)/benchsmoke.txt); \
	if [ "$$n" != 3 ]; then \
		cat $(BIN)/benchsmoke.txt; echo "benchsmoke: $$n of 3 workloads read \"correct\":true"; exit 1; \
	fi; echo "benchsmoke: all 3 workloads read \"correct\":true"

# Resilience gate: the seeded chaos self-tests run bench, leakage, and
# conformance campaigns over a memo store (the -cache seam), cancel them
# after a seeded number of stored cells, inject transient faults, rerun
# over the same store, and assert the final deterministic payload is
# byte-identical to an uninterrupted run at 1 and 4 workers and that the
# rerun served cells from the store. (Also runs as part of `make race`.)
chaos:
	$(GO) test -run 'TestChaos' -count=1 ./internal/campaign ./internal/leakage ./internal/conform

bench:
	$(GO) test -bench=. -benchmem .

# Kernel-equivalence gate: the fast-forward scheduler must produce
# byte-identical fingerprints to the cycle-by-cycle reference stepper across
# the whole equivalence matrix (fault seeds, checking, interrupts, every
# 8-core PARSEC kernel, the two-core attacks, and each InvisiSpec mechanism
# toggle switched off, whose fingerprints must also match the digests in
# internal/sim/testdata), the wake audit must find no cycle a core promised
# to idle on in which its state changes, the scheduler's unit tests and the
# credited-core test hold the tick-or-credit rule, TestLQEventCycles pins
# the cycle in which the load queue acts on a chained SB-reuse waiter and
# on a bounced Spec-GetS, and StructuralCheck must catch each kind of drift
# in the state the stages keep. The hierarchy's event heap must pop in
# (cycle, seq) order, L1 hits, every miss path and warm machines' cycles
# must not allocate (beyond the first touches the sim test bounds), and the
# entries the core and the hierarchy copy must hold no pointers. Every
# registered scheme's visibility point must hold at the ROB head, and only
# SpecBox may count speculation labels. (Also runs as part of `make race`.)
kernelcheck:
	$(GO) test -run 'TestKernelEquivalence|TestKernelSwitchMidRun|TestWakeAudit|TestFlushReachesCreditedCore|TestScheduler|TestLQEventCycles|TestStructuralCheckCatchesStageStateDrift|TestEventHeapPopsInCycleSeqOrder|TestL1HitAllocatesNothing|TestMissPathsAllocateNothing|TestWarmMachinesAllocateLittle|TestHotStateHoldsNoPointers|TestHeadVisibleUnderEveryScheme|TestSpecLabelsCountOnlyUnderSpecBox' -count=1 ./internal/sim ./internal/core ./internal/engine ./internal/memsys

# Short-budget Figure-4 sweep producing the BENCH_smoke.json artifact the
# CI regression gate compares against the committed baseline.
# -comparekernels re-runs the sweep under the stepped kernel, fails on any
# divergence, and records both kernels' wall time in the artifact's host
# block so benchdiff trajectories show the fast-forward speedup. The
# Figure-7 sweep does the same for the 8-core PARSEC machines. Each sweep
# stores its cells in a fresh $(SMOKE_CACHE); a second, host-free
# assembly of the same matrix is served from it without simulating and
# must equal the committed baseline byte for byte. Figures 6 and 8 read
# the same cells as Figures 4 and 7, so they print from the cache without
# simulating, and each fails unless both its average rows read Base 1.00.
smoke: tools
	rm -rf $(SMOKE_CACHE)
	$(BIN)/benchtable $(SMOKE_FLAGS) -comparekernels -cache $(SMOKE_CACHE) -benchjson BENCH_smoke.json -benchname smoke
	$(BIN)/benchtable $(SMOKE_FLAGS) -cache $(SMOKE_CACHE) -benchjson $(BIN)/baselinecheck.json -benchname smoke -benchhost=false
	cmp $(BIN)/baselinecheck.json BENCH_baseline.json
	$(BIN)/benchtable $(PARSEC_FLAGS) -comparekernels -cache $(SMOKE_CACHE) -benchjson $(BIN)/parsec_smoke.json -benchname parsec-smoke
	$(BIN)/benchtable $(PARSEC_FLAGS) -cache $(SMOKE_CACHE) -benchjson $(BIN)/parsec_baselinecheck.json -benchname parsec-smoke -benchhost=false
	cmp $(BIN)/parsec_baselinecheck.json BENCH_parsec_baseline.json
	for f in 6 8; do \
		$(BIN)/benchtable -fig $$f -warmup 5000 -measure 20000 -jobs $(JOBS) -quiet -cache $(SMOKE_CACHE) > $(BIN)/fig$$f.txt || exit 1; \
		cat $(BIN)/fig$$f.txt; \
		awk '$$1 ~ /^(RC-)?average$$/ { n++; if ($$2 != "1.00") bad = 1 } END { exit bad || n != 2 }' $(BIN)/fig$$f.txt \
			|| { echo "smoke: Figure $$f: an average row's Base column is not 1.00"; exit 1; }; \
	done

benchdiff: smoke
	$(BIN)/benchdiff BENCH_baseline.json BENCH_smoke.json

# Security regression gate: scan the fixed smoke corpus of transient
# attacks against every registered defense and fail if any secure
# configuration leaks, any expected leak (undefended Base, designed
# threat-model gaps) stops leaking, or any trial errors. Writes the
# deterministic leakage-report/v1 artifact CI uploads next to the bench
# artifact, which must equal the committed LEAKAGE_baseline.json.
leakscan: tools
	$(BIN)/leakscan $(LEAK_FLAGS) -json LEAKAGE_smoke.json
	cmp LEAKAGE_smoke.json LEAKAGE_baseline.json

# Feedback-driven attack search smoke: a fixed-seed, small-budget
# hill-climb over every template class against the full defense matrix.
# Fails (exit 1) if any searched candidate leaks through a defense the
# expected-outcome matrix says blocks it, and the report must equal the
# committed SEARCH_baseline.json. The nightly workflow runs the same
# search at a deep budget over a -cache directory its re-run attempts
# restore.
leaksearch: tools
	$(BIN)/leakscan $(SEARCH_FLAGS) -json SEARCH_smoke.json
	cmp SEARCH_smoke.json SEARCH_baseline.json

# Conformance-fuzzing gate: a fixed-seed campaign of generated programs
# differentially checked against the golden interpreter across the full
# defense × consistency × kernel matrix. Fails on any divergence and writes
# the deterministic conform-report/v1 artifact CI uploads. Minimized
# reproducers for past finds live in internal/conform/corpus and run with
# the normal test suite.
conform: tools
	$(BIN)/conformfuzz -seed 1 -n 200 -jobs $(JOBS) -q -shrink -json CONFORM_smoke.json

# Regenerate the committed baselines: the Figure-4 SPEC sweep, the
# Figure-7 PARSEC sweep (host block omitted so the artifacts are
# byte-stable across machines), the smoke leakage scan and the smoke
# attack search (`make leakscan`'s and `make leaksearch`'s runs). Run
# after intentional timing-model changes, and sanity-check the diff before
# committing.
baseline: tools
	$(BIN)/benchtable $(SMOKE_FLAGS) -benchjson BENCH_baseline.json -benchname smoke -benchhost=false
	$(BIN)/benchtable $(PARSEC_FLAGS) -benchjson BENCH_parsec_baseline.json -benchname parsec-smoke -benchhost=false
	$(BIN)/leakscan $(LEAK_FLAGS) -json LEAKAGE_baseline.json
	$(BIN)/leakscan $(SEARCH_FLAGS) -json SEARCH_baseline.json

# Byte-identity gate on the committed baselines: the smoke, leakscan and
# leaksearch gates, whose runs must equal BENCH_baseline.json,
# BENCH_parsec_baseline.json, LEAKAGE_baseline.json and
# SEARCH_baseline.json byte for byte. benchdiff tolerates CPI drift and
# the leakage verdicts ignore latencies; these cmps do not, so a change
# that moves any simulated statistic or probe latency fails here until
# the baselines are regenerated on purpose.
baselinecheck: smoke leakscan leaksearch

# Simulation-as-a-service (DESIGN.md §14): a long-running HTTP job server
# with content-addressed cell memoization and the HTML dashboard. Sweep
# jobs are gated against the committed baseline; the trends page reads the
# committed BENCH_*.json artifacts in the repo root.
serve: tools
	$(BIN)/simserver -addr :8080 -cache .simcache -history . -baseline BENCH_baseline.json
