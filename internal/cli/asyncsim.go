package cli

import (
	"fmt"
	"io"

	"synran/internal/metrics"
	"synran/internal/scenario"
	"synran/internal/stats"
	"synran/internal/trials"
)

// AsyncOptions configures AsyncSim. Like SimOptions, the semantic
// fields are a façade over scenario.Scenario (see Scenario); Workers
// and Metrics are presentation knobs.
type AsyncOptions struct {
	N, T      int
	Scheduler string
	Coin      string
	Workload  string
	Seed      uint64
	Trials    int
	MaxSteps  int
	// Workers bounds the multi-trial worker pool (0 = all cores). The
	// summary is identical at every worker count: trial i always runs at
	// seed Seed+i and results aggregate in index order.
	Workers int
	// Metrics, when non-nil, counts trials (the async engine itself is
	// not instrumented — the lock-step and live engines are).
	Metrics *metrics.Engine
	// Durable configures checkpointing and resume for the multi-trial
	// batch (CommonFlags.Durable). The zero value runs the batch exactly
	// as before.
	Durable trials.Durability
}

// Scenario is the declarative form of the flag surface: an async-benor
// scenario whose adversary is the scheduler and whose round budget is
// the delivery cap. A negative -t takes the protocol default
// (scenario.DefaultT, the Ben-Or resilience maximum) in Normalize.
func (opts AsyncOptions) Scenario() (scenario.Scenario, error) {
	s := scenario.Scenario{
		Protocol:  scenario.ProtocolAsyncBenOr,
		Adversary: opts.Scheduler,
		Coin:      opts.Coin,
		Workload:  opts.Workload,
		N:         opts.N,
		T:         opts.T,
		Seed:      opts.Seed,
		MaxRounds: opts.MaxSteps,
		Trials:    opts.Trials,
	}
	return s.Normalized()
}

// asyncTrial is one run's observations, aggregated in index order.
// Fields are exported because shard results cross the checkpoint
// journal as JSON when -checkpoint is set.
type asyncTrial struct {
	Timeout bool
	Decided int
	Steps   float64
	Phase   float64
	Flips   float64
	Expect  []string
}

// AsyncSim is the command core of cmd/asyncsim: the flags convert to a
// Scenario and run through AsyncScenario, the same code path a
// -scenario file takes.
func AsyncSim(opts AsyncOptions, w io.Writer) error {
	s, err := opts.Scenario()
	if err != nil {
		return err
	}
	return AsyncScenario(s, opts, w)
}

// AsyncScenario runs one async-benor scenario through
// scenario.RunAsync, the run path E15, the conformance harness and
// -scenario files share; synchronous scenarios dispatch to SimScenario
// so every binary accepts every scenario.
func AsyncScenario(s scenario.Scenario, opts AsyncOptions, w io.Writer) error {
	if !s.IsAsync() {
		return SimScenario(s, SimOptions{Workers: opts.Workers, Metrics: opts.Metrics, Durable: opts.Durable}, w)
	}
	fp, err := scenario.Compact(s)
	if err != nil {
		return err
	}
	outs, _, err := trials.DurableWorker(opts.Durable, BatchScope("async", fp), fp, opts.Workers, s.Trials, opts.Metrics, func(worker, i int) (asyncTrial, error) {
		run, err := scenario.RunAsync(&s, i, nil)
		if err != nil {
			return asyncTrial{}, err
		}
		o := run.Outcome()
		out := asyncTrial{Timeout: o.Partial}
		if s.Expect.Any() {
			out.Expect = s.CheckExpect(o)
		} else if !o.Partial && (!o.Agreement || !o.Validity) {
			return asyncTrial{}, fmt.Errorf("safety violated on seed %d", s.TrialSeed(i))
		}
		if !o.Partial {
			out.Decided, out.Steps = o.Decided, float64(o.Rounds)
			out.Phase, out.Flips = float64(run.MaxPhase), float64(run.Flips)
		}
		return out, nil
	})
	// Same error discipline as simMany: a failing or interrupted batch
	// prints nothing.
	if err != nil {
		return err
	}

	var (
		stepsSeen, phases, flips []float64
		timeouts, expectFails    int
		expectLines              []string
		decided                  = map[int]int{}
	)
	for i, o := range outs {
		for _, v := range o.Expect {
			expectFails++
			expectLines = append(expectLines, fmt.Sprintf("trial %d (seed %d): %s", i, s.TrialSeed(i), v))
		}
		if o.Timeout {
			timeouts++
			continue
		}
		decided[o.Decided]++
		stepsSeen = append(stepsSeen, o.Steps)
		phases = append(phases, o.Phase)
		flips = append(flips, o.Flips)
	}

	fmt.Fprintf(w, "async benor: n=%d t=%d coin=%s scheduler=%s workload=%s trials=%d\n",
		s.N, s.T, s.Coin, s.Adversary, s.Workload, s.Trials)
	fmt.Fprintf(w, "terminated : %d/%d (timeouts: %d)\n", s.Trials-timeouts, s.Trials, timeouts)
	if len(stepsSeen) > 0 {
		fmt.Fprintf(w, "deliveries : %s\n", stats.Summarize(stepsSeen))
		fmt.Fprintf(w, "phases     : %s\n", stats.Summarize(phases))
		fmt.Fprintf(w, "coin flips : %s\n", stats.Summarize(flips))
		fmt.Fprintf(w, "decisions  : 0 → %d, 1 → %d\n", decided[0], decided[1])
	}
	if timeouts == s.Trials && s.Coin == "parity" {
		fmt.Fprintln(w, "every run looped forever: the FLP schedule, demonstrated")
	}
	if s.Expect.Any() {
		for _, line := range expectLines {
			fmt.Fprintf(w, "expect     : FAIL %s\n", line)
		}
		if expectFails > 0 {
			return fmt.Errorf("%d expectation(s) violated across %d trials", expectFails, s.Trials)
		}
		fmt.Fprintf(w, "expect     : ok (%d trials)\n", s.Trials)
	}
	return nil
}
