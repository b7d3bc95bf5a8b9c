# Development entry points. Everything is stdlib-only Go; no external
# tools are required beyond the Go toolchain.

GO ?= go

.PHONY: all build test test-short race cover bench bench-json bench-check soak conformance scenarios experiments experiments-quick adversary-smoke metrics metrics-golden examples loc clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race -short ./...

cover:
	$(GO) test -cover ./...

# One testing.B target per paper experiment, plus ablations and
# substrate micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem .

# The snapshot-engine benchmarks recorded as a machine-readable JSON
# artifact (the checked-in baseline CI gates against).
BENCH_SNAPSHOT = CloneVsCloneInto|ValencyEstimate|StepwiseRound|MetricsOverhead|EngineAtScale|AsyncSplitter|LookaheadRun
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_SNAPSHOT)' -benchmem . | $(GO) run ./cmd/benchjson -out BENCH_sim.json

# The gates bench-check applies, benchmark=tolerance: each row's
# allocs/op and its B/op may each exceed its checked-in BENCH_sim.json
# baseline by at most that fraction (bytes catch what counts cannot: a
# process vector is one allocation at any n). The arena estimator gets
# 20%, the disabled metrics path 2% (the "metrics off = free" budget),
# the metered path 12% (its checked-in 30 allocs/op predate the three
# it reads at 20x, 33; 12% passes those and fails a 34th), the SoA
# stepwise lane 34% (baseline 3 allocs/op, so the columnar core
# stays two orders of magnitude under the object engine's 1063-alloc
# seed), every at-scale engine lane (object and soa at n = 1024,
# soa-1e5 at n = 10^5) 20%, the async engine's Splitter execution
# 20%, and every Section 3 adversary run (lowerbound at n = 16 and 256,
# stepwise at n = 12) 20%.
BENCH_GATES = BenchmarkValencyEstimate/arena=0.20,BenchmarkMetricsOverhead/off=0.02,BenchmarkMetricsOverhead/on=0.12,BenchmarkStepwiseRoundSoA=0.34,BenchmarkEngineAtScale/soa=0.20,BenchmarkEngineAtScale/object=0.20,BenchmarkEngineAtScale/soa-1e5=0.20,BenchmarkAsyncSplitter=0.20,BenchmarkLookaheadRun/lowerbound-n16=0.20,BenchmarkLookaheadRun/stepwise-n12=0.20,BenchmarkLookaheadRun/lowerbound-n256=0.20

# Re-run the snapshot benches for 20 iterations each and fail if any
# BENCH_GATES row's allocs/op or B/op regressed past its tolerance.
# CI's bench-smoke job runs this target and uploads the two files it
# leaves: bench-smoke.txt (the raw bench output, also printed) and
# BENCH_sim.ci.json (the same results as JSON).
# Twenty iterations measure the steady state: Go builds its
# type-assertion caches on randomly sampled calls, so a single
# iteration of the rollout path now and then catches a one-off
# allocation (ValencyEstimate/arena read 4 or 5 allocs/op against its 3
# in 6 of 40 one-iteration processes, and 3 in 40 of 40 at 20), while
# the integer average over 20 iterations still reads 3 and a real +1
# alloc/op regression still reads 4.
bench-check:
	$(GO) test -run '^$$' -bench '$(BENCH_SNAPSHOT)' -benchtime=20x -benchmem . > bench-smoke.txt; \
		status=$$?; cat bench-smoke.txt; exit $$status
	$(GO) run ./cmd/benchjson -out BENCH_sim.ci.json -baseline BENCH_sim.json -check '$(BENCH_GATES)' < bench-smoke.txt

# Crash-chaos soak for the durability layer, under the race detector:
# the journal's format/truncation/corruption properties and fuzz corpus,
# the DurableWorker resume/interrupt/failure suite, the in-process
# kill-at-seeded-checkpoints soak (resume must reproduce the
# uninterrupted tables byte for byte at every worker count), the whole
# quick experiment suite checkpointed and resumed cell by cell, and the
# cmd-level SIGKILL/re-exec and -deadline/-resume smokes, then a short
# coverage-guided fuzz of the journal decoder.
soak:
	$(GO) test -race -count=1 -run 'Journal|Durable|Soak|Checkpoint|KillResume|DeadlineFlush|Watchdog' \
		./internal/journal ./internal/trials ./internal/experiments ./internal/cli
	$(GO) test -run '^$$' -fuzz FuzzJournal -fuzztime 10s ./internal/journal

# Cross-engine conformance: the differential harness (the lock-step
# engine on both cores vs Reset vs snapshot forks, plus async replay
# determinism) with its invariant oracles, then
# the quick CLI sweep with the base lane on each engine core (the
# default, then the object reference core).
conformance:
	$(GO) test -count=1 ./internal/conformance
	$(GO) run ./cmd/conformance -quick -seed 42
	$(GO) run ./cmd/conformance -quick -seed 42 -engine object
	$(GO) run ./cmd/conformance -scenario-dir testdata/corpus

# The declarative scenario surface: codec round-trip and corpus tests,
# the checked-in corpus through every lane of the conformance binary
# and as a bench outcome table, an async entry through asyncsim and an
# async -one repro with a delivery cap (the form async findings print),
# then a short coverage-guided fuzz that mutates corpus entries hunting
# for engine divergences — any finding is minimized and written back
# into testdata/corpus as a repro.
scenarios:
	$(GO) test -count=1 ./internal/scenario
	$(GO) test -count=1 -run 'Scenario|Corpus' ./internal/conformance ./internal/cli
	$(GO) run ./cmd/conformance -scenario-dir testdata/corpus
	$(GO) run ./cmd/synran-bench -scenario-dir testdata/corpus
	$(GO) run ./cmd/asyncsim -scenario testdata/corpus/async-splitter.scenario
	$(GO) run ./cmd/conformance -one "protocol=async-benor,adversary=splitter,coin=parity,workload=half,n=4,t=1,seed=1,maxrounds=500"
	$(GO) test -run '^$$' -fuzz FuzzScenario -fuzztime 10s ./internal/conformance

# Regenerate every experiment table at full size (~9 s on 2 cores) or
# quick size (under a second). Exit status is non-zero if any paper
# claim fails.
experiments:
	$(GO) run ./cmd/synran-bench

experiments-quick:
	$(GO) run ./cmd/synran-bench -quick

# The adversary-family smoke: the omission/late experiments at quick
# size, the clone-aliasing guard over every family the facade builds,
# and a cross-core look-ahead run: the Section 3 stepwise adversary at
# n = 64 must print the same digest on the default core, where a
# coin-free rollout stands for its pool member's others, and on the
# object core, which simulates every rollout. Fast enough to run before
# any adversary or engine change.
adversary-smoke:
	$(GO) run ./cmd/synran-bench -quick -only E18,E19
	$(GO) test -count=1 -run TestCloneDoesNotAliasOriginal ./internal/adversary
	@a=$$($(GO) run ./cmd/consensus-sim -n 64 -adversary stepwise -seed 42 -digest | grep '^digest'); \
		b=$$($(GO) run ./cmd/consensus-sim -n 64 -adversary stepwise -seed 42 -digest -engine object | grep '^digest'); \
		echo "default core: $$a"; echo "object core:  $$b"; \
		test -n "$$a" && test "$$a" = "$$b"

# The metrics determinism suite: shard-layout invariance, the CLI-level
# workers-1-vs-8 byte comparison, the lossy-link counters-vs-Faults
# cross-check, and the quick-suite golden (tables + metrics JSON).
metrics:
	$(GO) test -count=1 ./internal/metrics
	$(GO) test -count=1 -run 'Metrics|Pprof' ./internal/cli ./internal/chaos
	$(GO) test -count=1 -run 'TestRunAllWorkerInvariance|TestQuickGoldenFile' ./internal/experiments

# Regenerate the quick-suite goldens: the experiment tables and the
# metrics export come from the same run, so they stay in sync.
metrics-golden:
	$(GO) run ./cmd/synran-bench -quick -seed 42 -workers 8 \
		-metrics-out results/metrics-quick-seed42.json > results/experiments-quick-seed42.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/replay
	$(GO) run ./examples/commitvote
	$(GO) run ./examples/coingame
	$(GO) run ./examples/adaptivitygap
	$(GO) run ./examples/flploop

# Go line counts, non-test and test, outside the perfbench module and
# its build directory: the before/after figures a change reports.
LOC_FILES = find . -name '*.go' -not -path './perfbench/*' -not -path './.bench_build/*'
loc:
	@printf 'non-test Go lines: %s\n' "$$($(LOC_FILES) -not -name '*_test.go' -exec cat {} + | wc -l)"
	@printf 'test Go lines:     %s\n' "$$($(LOC_FILES) -name '*_test.go' -exec cat {} + | wc -l)"

clean:
	$(GO) clean ./...
