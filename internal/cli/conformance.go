package cli

import (
	"fmt"
	"io"

	"synran/internal/conformance"
	"synran/internal/metrics"
	"synran/internal/scenario"
	"synran/internal/trials"
)

// ConformanceOptions configures Conformance.
type ConformanceOptions struct {
	// Quick selects the reduced case grid (the CI smoke configuration).
	Quick bool
	Seed  uint64
	// Seeds is the number of seeds per grid point (minimum 1).
	Seeds int
	// Workers bounds the case worker pool (0 = all cores); the report is
	// identical at every worker count.
	Workers int
	// Engine pins every grid case's lock-step core ("" or "soa" =
	// default, "object" = object reference core); the cross-core
	// differential lane runs either way.
	Engine string
	// MaxRounds caps each synchronous lane, and a -one async case's
	// deliveries (0 = the harness default).
	MaxRounds int
	// One, when non-empty, checks a single case spec (the -one repro
	// every finding prints, sync or async) instead of the grid.
	One string
	// Scenario, when non-empty, checks a single .scenario file through
	// every applicable lane (the repro line a corpus violation prints).
	Scenario string
	// ScenarioDir sweeps every *.scenario file in a directory — the
	// checked-in corpus under testdata/corpus is the CI consumer.
	ScenarioDir string
	// Metrics, when non-nil, counts conformance cases as trials.
	Metrics *metrics.Engine
	// Durable configures checkpointing and resume for the case batches
	// (conformance.SweepConfig.Durable).
	Durable trials.Durability
}

// Conformance is the command core of cmd/conformance: it runs the
// differential sweep (or one case) and renders every divergence and
// oracle violation, returning an error when any were found so the
// command exits non-zero.
func Conformance(opts ConformanceOptions, w io.Writer) error {
	if opts.One != "" {
		return conformanceOne(opts, w)
	}
	if opts.Scenario != "" || opts.ScenarioDir != "" {
		return conformanceScenarios(opts, w)
	}
	cfg := conformance.SweepConfig{
		Quick:     opts.Quick,
		Seed:      opts.Seed,
		Seeds:     opts.Seeds,
		Workers:   opts.Workers,
		Engine:    opts.Engine,
		MaxRounds: opts.MaxRounds,
		Metrics:   opts.Metrics,
		Durable:   opts.Durable,
	}
	sum, err := conformance.Sweep(cfg)
	if err != nil {
		return err
	}
	mode := "full"
	if opts.Quick {
		mode = "quick"
	}
	fmt.Fprintf(w, "conformance %s sweep: seed=%d\n", mode, opts.Seed)
	fmt.Fprintf(w, "sync cases : %d (sim object vs soa vs reset vs snapshot forks)\n", sum.SyncCases)
	fmt.Fprintf(w, "async cases: %d (replay determinism + invariants)\n", sum.AsyncCases)
	renderFindings(w, sum.Divergences, sum.Violations)
	if !sum.Ok() {
		return fmt.Errorf("%d divergences, %d violations", len(sum.Divergences), len(sum.Violations))
	}
	fmt.Fprintln(w, "all lanes agree; all oracles hold")
	return nil
}

// conformanceOne replays a single case spec — the reproduction path
// every reported finding names, sync or async — through every lane the
// scenario takes.
func conformanceOne(opts ConformanceOptions, w io.Writer) error {
	s, err := conformance.ParseOne(opts.One)
	if err != nil {
		return err
	}
	if opts.MaxRounds > 0 {
		s.MaxRounds = opts.MaxRounds
	}
	// A case is one seeded check; expectations belong to -scenario files,
	// whose violations name the file to replay.
	s.Expect = scenario.Expect{}
	fmt.Fprintf(w, "conformance case: %s\n", conformance.CaseName(s))
	divs, violations, err := conformance.CheckScenario(scenario.Entry{Scenario: s}, nil)
	if err != nil {
		return err
	}
	renderFindings(w, divs, violations)
	if len(divs) > 0 || len(violations) > 0 {
		return fmt.Errorf("%d divergences, %d violations", len(divs), len(violations))
	}
	fmt.Fprintln(w, "all lanes agree; all oracles hold")
	return nil
}

// conformanceScenarios runs the declarative path: every entry of the
// -scenario/-scenario-dir selection goes through conformance.SweepCorpus
// — the sync differential lanes or the async replay check, plus the
// expectation lane for entries that assert outcomes.
func conformanceScenarios(opts ConformanceOptions, w io.Writer) error {
	entries, err := loadScenarioEntries(opts.Scenario, opts.ScenarioDir)
	if err != nil {
		return err
	}
	src := opts.Scenario
	if src == "" {
		src = opts.ScenarioDir
	}
	// Scenario files pin their own engine and round caps; only the
	// presentation knobs apply here.
	sum, err := conformance.SweepCorpus(entries, conformance.SweepConfig{
		Workers: opts.Workers, Metrics: opts.Metrics, Durable: opts.Durable,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "conformance scenario sweep: %d entries from %s\n", len(entries), src)
	fmt.Fprintf(w, "sync cases : %d (differential lanes + expectations)\n", sum.SyncCases)
	fmt.Fprintf(w, "async cases: %d (replay determinism + expectations)\n", sum.AsyncCases)
	renderFindings(w, sum.Divergences, sum.Violations)
	if !sum.Ok() {
		return fmt.Errorf("%d divergences, %d violations", len(sum.Divergences), len(sum.Violations))
	}
	fmt.Fprintln(w, "all lanes agree; all oracles hold")
	return nil
}

func renderFindings(w io.Writer, divs []conformance.Divergence, violations []string) {
	for _, d := range divs {
		fmt.Fprintf(w, "DIVERGENCE %s\n", d)
	}
	for _, v := range violations {
		fmt.Fprintf(w, "VIOLATION %s\n", v)
	}
}
