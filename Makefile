# Development entry points. Everything is stdlib-only Go; no external
# tools are required beyond the Go toolchain.

GO ?= go

.PHONY: all build test test-short race cover bench bench-json bench-check chaos soak server-smoke conformance scenarios experiments experiments-quick adversary-smoke metrics metrics-golden examples clean

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
BENCH_SNAPSHOT = CloneVsCloneInto|ValencyEstimate|StepwiseRound|MetricsOverhead|EngineAtScale
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_SNAPSHOT)' -benchmem . | $(GO) run ./cmd/benchjson -out BENCH_sim.json

# Re-run the snapshot benches once and fail if the arena estimator's
# allocs/op regressed more than 20% against the checked-in baseline, the
# disabled metrics path's more than 2% (the "metrics off = free"
# budget), the SoA stepwise lane's more than 34% (baseline 3
# allocs/op, so the columnar core stays two orders of magnitude under
# the object engine's 1063-alloc seed), or either at-scale engine
# lane's more than 20%.
bench-check:
	$(GO) test -run '^$$' -bench '$(BENCH_SNAPSHOT)' -benchtime=1x -benchmem . | \
		$(GO) run ./cmd/benchjson -out /dev/null -baseline BENCH_sim.json \
		-check 'BenchmarkValencyEstimate/arena=0.20,BenchmarkMetricsOverhead/off=0.02,BenchmarkStepwiseRoundSoA=0.34,BenchmarkEngineAtScale/soa=0.20,BenchmarkEngineAtScale/object=0.20'

# Seeded chaos soak under the race detector: the fault injector, the
# hardened synchronizer's safety/termination properties, and the
# zero-fault equivalence proof, all with scheduling randomized by -race.
chaos:
	$(GO) test -race -count=1 ./internal/chaos ./internal/netsim
	$(GO) run ./cmd/consensus-sim -n 16 -t 7 -adversary none -seed 42 \
		-chaos 'drop=0.05,dup=0.02,stall=0.05,maxstall=2ms,until=25' -faultbudget 5 -trials 8

# Crash-chaos soak for the durability layer, under the race detector:
# the journal's format/truncation/corruption properties and fuzz corpus,
# the DurableWorker retry/hedge/interrupt suite, the in-process
# kill-at-seeded-checkpoints soak (resume must reproduce the
# uninterrupted tables byte for byte at every worker count), and the
# cmd-level SIGKILL/re-exec and -deadline/-resume smokes, then a short
# coverage-guided fuzz of the journal decoder.
soak:
	$(GO) test -race -count=1 -run 'Journal|Durable|Soak|Checkpoint|KillResume|DeadlineFlush|Watchdog' \
		./internal/journal ./internal/trials ./internal/cli
	$(GO) test -run '^$$' -fuzz FuzzJournal -fuzztime 10s ./internal/journal

# Experiment-service smoke: the resident trial server's unit and soak
# suites under the race detector (priority gate, job store replay,
# backpressure, in-process restart and cmd-level SIGKILL byte-identity),
# then the loadgen hammering a selfhost server with 8 mixed-priority
# clients, the canary lane, and the typed queue-full probe — every
# job's merged table must match the consensus-sim run of the same
# scenario byte for byte.
server-smoke:
	$(GO) test -race -count=1 ./internal/server
	$(GO) test -race -count=1 -run 'TestServer|TestSynrand|TestLoadgen' ./internal/cli
	$(GO) run ./cmd/synrand loadgen -clients 8 -jobs 3 -canary 5

# Cross-engine conformance: the differential harness (sequential sim vs
# zero-chaos netsim vs Reset vs snapshot forks vs the other engine
# core, plus async replay determinism) with its invariant oracles, then
# the quick CLI sweep with the base lane on each engine core (the
# default, then the object reference core).
conformance:
	$(GO) test -count=1 ./internal/conformance
	$(GO) run ./cmd/conformance -quick -seed 42
	$(GO) run ./cmd/conformance -quick -seed 42 -engine object
	$(GO) run ./cmd/conformance -scenario-dir testdata/corpus

# The declarative scenario surface: codec round-trip and corpus tests,
# the checked-in corpus through every lane of the conformance binary
# and as a bench outcome table, then a short coverage-guided fuzz that
# mutates corpus entries hunting for engine divergences — any finding
# is minimized and written back into testdata/corpus as a repro.
scenarios:
	$(GO) test -count=1 ./internal/scenario
	$(GO) test -count=1 -run 'Scenario|Corpus' ./internal/conformance ./internal/cli
	$(GO) run ./cmd/conformance -scenario-dir testdata/corpus
	$(GO) run ./cmd/synran-bench -scenario-dir testdata/corpus
	$(GO) test -run '^$$' -fuzz FuzzScenario -fuzztime 10s ./internal/conformance

# Regenerate every experiment table at full size (minutes) or quick size
# (seconds). Exit status is non-zero if any paper claim fails.
experiments:
	$(GO) run ./cmd/synran-bench

experiments-quick:
	$(GO) run ./cmd/synran-bench -quick

# The adversary-family smoke: the omission/late experiments at quick
# size plus the clone-aliasing guard over every family the facade
# builds. Fast enough to run before any adversary or engine change.
adversary-smoke:
	$(GO) run ./cmd/synran-bench -quick -only E18,E19
	$(GO) test -count=1 -run TestCloneDoesNotAliasOriginal ./internal/adversary

# The metrics determinism suite: shard-layout invariance, the CLI-level
# workers-1-vs-8 byte comparison, the netsim counters-vs-Faults
# cross-check, and the quick-suite golden (tables + metrics JSON).
metrics:
	$(GO) test -count=1 ./internal/metrics
	$(GO) test -count=1 -run 'Metrics|Pprof' ./internal/cli ./internal/netsim
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
	$(GO) run ./examples/livecluster
	$(GO) run ./examples/adaptivitygap
	$(GO) run ./examples/flploop

clean:
	$(GO) clean ./...
