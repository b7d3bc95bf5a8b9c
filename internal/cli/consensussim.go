// Package cli holds the testable command cores of the repository's
// binaries: each cmd/<tool>/main.go parses flags and delegates here, so
// the behaviour (output formatting, error paths, exit conditions) is
// unit-tested without spawning processes.
package cli

import (
	"fmt"
	"io"

	"synran"
	"synran/internal/journal"
	"synran/internal/metrics"
	"synran/internal/scenario"
	"synran/internal/sim"
	"synran/internal/stats"
	"synran/internal/trace"
	"synran/internal/trials"
)

// SimOptions configures ConsensusSim. The semantic fields (everything
// up to Chaos/FaultBudget) are a façade over scenario.Scenario — see
// Scenario — while the remainder are presentation knobs a scenario
// file does not carry.
type SimOptions struct {
	N, T      int
	Protocol  string
	Adversary string
	Workload  string
	Seed      uint64
	Trials    int
	Trace     bool
	Digest    bool
	TraceFile string
	// Engine selects the lock-step engine core ("" or "soa" = default,
	// "object" = object reference core); see synran.Spec.Engine.
	Engine string
	// Chaos, when non-empty, runs the adversary over links that drop
	// messages at this rate (chaos.ParseSpec syntax, e.g. "drop=0.05").
	Chaos string
	// FaultBudget bounds the demotions lossy links or an omission
	// adversary may charge (see synran.Spec.FaultBudget).
	FaultBudget int
	// Workers bounds the multi-trial worker pool (0 = all cores). The
	// summary is identical at every worker count: trial i always runs at
	// seed Seed+i and results aggregate in index order.
	Workers int
	// Metrics, when non-nil, receives instrument emissions from every
	// execution, sharded by the trial worker. The exported report obeys
	// the same worker-count invariance as the summary.
	Metrics *metrics.Engine
	// Durable configures checkpointing and resume for the multi-trial
	// batch (CommonFlags.Durable). The zero value runs the batch exactly
	// as before.
	Durable trials.Durability
}

// Scenario is the declarative form of the flag surface. The -t<0
// default (crash budget n-1) resolves here, before the scenario is
// built, and the result is normalized and validated exactly like a
// parsed .scenario file — so a flag-built run and its Format-ed file
// are the same execution.
func (opts SimOptions) Scenario() (scenario.Scenario, error) {
	t := opts.T
	if t < 0 {
		t = opts.N - 1
	}
	s := scenario.Scenario{
		Protocol:    opts.Protocol,
		Adversary:   opts.Adversary,
		Workload:    opts.Workload,
		N:           opts.N,
		T:           t,
		Seed:        opts.Seed,
		Engine:      opts.Engine,
		Chaos:       opts.Chaos,
		FaultBudget: opts.FaultBudget,
		Trials:      opts.Trials,
	}
	return s.Normalized()
}

// ConsensusSim is the command core of cmd/consensus-sim: the flags
// convert to a Scenario and run through SimScenario, the same code path
// a -scenario file takes.
func ConsensusSim(opts SimOptions, w io.Writer) error {
	s, err := opts.Scenario()
	if err != nil {
		return err
	}
	return SimScenario(s, opts, w)
}

// SimScenario runs one scenario through consensus-sim's execution core.
// opts supplies only the presentation knobs a scenario file does not
// carry (trace, digest, trace file, workers, metrics); the execution is
// fully determined by s. Async scenarios dispatch to AsyncScenario —
// every binary accepts every scenario.
func SimScenario(s scenario.Scenario, opts SimOptions, w io.Writer) error {
	if s.IsAsync() {
		return AsyncScenario(s, AsyncOptions{Workers: opts.Workers, Metrics: opts.Metrics, Durable: opts.Durable}, w)
	}
	if s.Trials <= 1 {
		return simOnce(s, opts, w)
	}
	return simMany(s, opts, w)
}

func simOnce(s scenario.Scenario, opts SimOptions, w io.Writer) error {
	spec, err := s.Spec(0, opts.Metrics, 0)
	if err != nil {
		return err
	}
	var (
		observers sim.MultiObserver
		dg        *sim.Digest
		rec       *trace.Recorder
	)
	if opts.Trace {
		observers = append(observers, &synran.TraceObserver{W: w})
	}
	if opts.Digest {
		dg = sim.NewDigest()
		observers = append(observers, dg)
	}
	if opts.TraceFile != "" {
		rec = trace.NewRecorder(s.N, s.T, s.Seed)
		observers = append(observers, rec)
	}
	if len(observers) > 0 {
		spec.Observer = observers
	}
	res, err := synran.Run(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "protocol=%s adversary=%s n=%d t=%d workload=%s seed=%d\n",
		s.Protocol, s.Adversary, s.N, s.T, s.Workload, s.Seed)
	fmt.Fprintf(w, "decided value : %d\n", res.DecidedValue())
	fmt.Fprintf(w, "rounds        : %d (all decided), %d (all halted)\n", res.DecideRounds, res.HaltRounds)
	fmt.Fprintf(w, "messages      : %d delivered\n", res.Messages)
	fmt.Fprintf(w, "crashes       : %d of budget %d; survivors %d\n", res.Crashes, s.T, res.Survivors)
	fmt.Fprintf(w, "agreement     : %v\n", res.Agreement)
	fmt.Fprintf(w, "validity      : %v\n", res.Validity)
	fmt.Fprintf(w, "theory        : upper-bound shape %.2f rounds, lower-bound floor %.2f rounds\n",
		synran.UpperBoundRounds(s.N, s.T), synran.LowerBoundRounds(s.N, s.T))
	if spec.Chaos != nil {
		fmt.Fprintf(w, "chaos         : %s (fault budget %d)\n", spec.Chaos.Spec(), s.FaultBudget)
		fmt.Fprintf(w, "faults        : demoted=%d\n", res.Faults.Demoted)
	}
	if dg != nil {
		fmt.Fprintf(w, "digest        : %s\n", dg)
	}
	if rec != nil {
		if err := journal.WriteFileAtomic(opts.TraceFile, rec.Log().WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace written : %s (%d events)\n", opts.TraceFile, len(rec.Log().Events))
	}
	if s.Expect.Any() {
		if vs := s.CheckExpect(scenario.OutcomeOf(res)); len(vs) > 0 {
			for _, v := range vs {
				fmt.Fprintf(w, "expect        : FAIL %s\n", v)
			}
			return fmt.Errorf("%d expectation(s) violated", len(vs))
		}
		fmt.Fprintf(w, "expect        : ok\n")
		return nil
	}
	if !res.Agreement || !res.Validity {
		return fmt.Errorf("safety violated (expected only for the symmetric baseline under mass crashes)")
	}
	return nil
}

func simMany(s scenario.Scenario, opts SimOptions, w io.Writer) error {
	// Fields are exported because shard results cross the checkpoint
	// journal as JSON when -checkpoint is set.
	type outcome struct {
		Rounds   float64
		Crashes  float64
		Decided  int
		Violated bool
		Faults   sim.Faults
		Expect   []string
	}
	fp, err := scenario.Compact(s)
	if err != nil {
		return err
	}
	outs, _, err := trials.DurableWorker(opts.Durable, BatchScope("sim", fp), fp, opts.Workers, s.Trials, opts.Metrics, func(worker, i int) (outcome, error) {
		spec, err := s.Spec(i, opts.Metrics, worker)
		if err != nil {
			return outcome{}, err
		}
		res, err := synran.Run(spec)
		if err != nil {
			return outcome{}, err
		}
		o := outcome{
			Rounds:   float64(res.HaltRounds),
			Crashes:  float64(res.Crashes),
			Decided:  res.DecidedValue(),
			Violated: !res.Agreement || !res.Validity,
			Faults:   res.Faults,
		}
		if s.Expect.Any() {
			o.Expect = s.CheckExpect(scenario.OutcomeOf(res))
		}
		return o, nil
	})
	// A failing batch prints nothing, with or without -checkpoint: the
	// smallest failing trial's error is the whole report. An interrupted
	// durable batch's journal holds the completed shards, and a -resume
	// re-run produces the full table, byte-identical to an uninterrupted
	// one.
	if err != nil {
		return err
	}
	rounds := make([]float64, 0, s.Trials)
	crashes := make([]float64, 0, s.Trials)
	decided := map[int]int{}
	violations, expectFails := 0, 0
	var faults sim.Faults
	var expectLines []string
	for i, o := range outs {
		faults.Demoted += o.Faults.Demoted
		for _, v := range o.Expect {
			expectFails++
			expectLines = append(expectLines, fmt.Sprintf("trial %d (seed %d): %s", i, s.TrialSeed(i), v))
		}
		rounds = append(rounds, o.Rounds)
		crashes = append(crashes, o.Crashes)
		decided[o.Decided]++
		if o.Violated {
			violations++
		}
	}
	fmt.Fprintf(w, "protocol=%s adversary=%s n=%d t=%d workload=%s trials=%d (seeds %d..%d)\n",
		s.Protocol, s.Adversary, s.N, s.T, s.Workload, s.Trials,
		s.Seed, s.Seed+uint64(s.Trials)-1)
	fmt.Fprintf(w, "rounds   : %s  %s\n", stats.Summarize(rounds), stats.Sparkline(rounds, 12))
	fmt.Fprintf(w, "crashes  : %s\n", stats.Summarize(crashes))
	fmt.Fprintf(w, "decisions: 0 → %d, 1 → %d\n", decided[0], decided[1])
	fmt.Fprintf(w, "safety   : %d violations\n", violations)
	if s.Chaos != "" {
		fmt.Fprintf(w, "chaos    : %s (fault budget %d)\n", s.Chaos, s.FaultBudget)
		fmt.Fprintf(w, "faults   : demoted=%d\n", faults.Demoted)
	}
	fmt.Fprintf(w, "theory   : upper-bound shape %.2f rounds\n", synran.UpperBoundRounds(s.N, s.T))
	if s.Expect.Any() {
		for _, line := range expectLines {
			fmt.Fprintf(w, "expect   : FAIL %s\n", line)
		}
		if expectFails > 0 {
			return fmt.Errorf("%d expectation(s) violated across %d trials", expectFails, s.Trials)
		}
		fmt.Fprintf(w, "expect   : ok (%d trials)\n", s.Trials)
		return nil
	}
	if violations > 0 {
		return fmt.Errorf("%d safety violations", violations)
	}
	return nil
}
