package experiments

import (
	"errors"
	"fmt"

	"synran"
	"synran/internal/metrics"
	"synran/internal/scenario"
	"synran/internal/sim"
	"synran/internal/stats"
	"synran/internal/trials"
	"synran/internal/workload"
)

// sample is one execution's outcome, the unit every table row and claim
// reduces. Its fields are exported because a cell's samples journal as
// JSON under -checkpoint (see trials.DurableWorker).
type sample struct {
	Decide, Halt, Crashes int
	Faults                sim.Faults
	Agreement, Validity   bool
	// Partial marks a run the engine cut short with a typed degradation
	// error (the round cap, the fault budget). Its Agreement then means
	// only that no two decided survivors disagree.
	Partial bool
	// Settle is the round after the last split proposal, for the cells
	// that attach a stabilizationObserver (E11, E13).
	Settle int
	// Blocks holds the crash count of each 3-round block, for the cells
	// that attach a blockProbe (E8).
	Blocks []int
}

// runCell runs one table cell: reps trials of trial, batched through
// trials.DurableWorker, so every cell checkpoints under -checkpoint and
// resumes under -resume. Trial i must derive everything from i; the
// shards come back in trial order, identical at every worker count. A
// failing trial fails the cell with an error naming the cell and the
// trial. m meters the batch; nil disables metering.
//
// The journal scope is the cell's key, which must be unique across
// RunAll. The fingerprint names the key, the quick flag, the seed, reps
// and the shard type T, whose %#v spelling lists every field: a journal
// written for another cell, configuration or shard layout is refused,
// never decoded into a shard with silently zero fields.
func runCell[T any](cfg Config, key string, reps int, m *metrics.Engine, trial func(worker, i int) (T, error)) ([]T, error) {
	var shard T
	fp := fmt.Sprintf("cell=%s,quick=%t,seed=%d,reps=%d,shard=%#v", key, cfg.Quick, cfg.Seed, reps, shard)
	ss, _, err := trials.DurableWorker(cfg.Durable, key, fp, cfg.Workers, reps, m, func(worker, i int) (T, error) {
		s, err := trial(worker, i)
		if err != nil {
			return s, fmt.Errorf("%s trial %d: %w", key, i, err)
		}
		return s, nil
	})
	return ss, err
}

// runNamed runs a cell that synran names by protocol × adversary: trial
// i is synran.Run(spec(i)) with m on the trial's worker shard, which
// also counts the cell's partial runs. A probe set as the spec's
// Observer records into the sample.
func runNamed(cfg Config, key string, reps int, m *metrics.Engine, spec func(i int) (synran.Spec, error)) ([]sample, error) {
	return runCell(cfg, key, reps, m, func(worker, i int) (sample, error) {
		s, err := spec(i)
		if err != nil {
			return sample{}, err
		}
		s.Metrics, s.MetricsShard = m, worker
		res, err := synran.Run(s)
		smp, err := sampleOf(res, err, s.Observer)
		if err == nil && smp.Partial && m != nil {
			m.TrialsDegraded.Inc(worker)
		}
		return smp, err
	})
}

// runSafe is runNamed for a cell whose every run must complete with
// agreement and validity.
func runSafe(cfg Config, key string, reps int, m *metrics.Engine, spec func(i int) (synran.Spec, error)) ([]sample, error) {
	ss, err := runNamed(cfg, key, reps, m, spec)
	if err != nil {
		return nil, err
	}
	return ss, checkSafe(key, ss, false)
}

// checkSafe names the cell's first trial that broke agreement or
// validity, or that was cut short unless partialOK. The first trial by
// index is the same at every worker count, so a red run always blames
// the same (cell, trial) pair.
func checkSafe(key string, ss []sample, partialOK bool) error {
	for i, s := range ss {
		switch {
		case s.Partial && !partialOK:
			return fmt.Errorf("%s trial %d: run cut short before termination", key, i)
		case !s.Agreement || !s.Validity:
			return fmt.Errorf("%s trial %d: safety violated", key, i)
		}
	}
	return nil
}

// sampleOf reduces one execution to a sample. A typed degradation error
// (sim.ErrMaxRounds, synran.ErrFaultBudget) makes a partial sample from
// whatever partial Result came with it; any other error fails the trial.
// If obs is a probe, its reading is recorded.
func sampleOf(res *sim.Result, err error, obs sim.Observer) (sample, error) {
	partial := errors.Is(err, sim.ErrMaxRounds) || errors.Is(err, synran.ErrFaultBudget)
	if err != nil && !partial {
		return sample{}, err
	}
	s := sample{Partial: partial}
	if res != nil {
		s.Decide, s.Halt, s.Crashes, s.Faults = res.DecideRounds, res.HaltRounds, res.Crashes, res.Faults
		s.Agreement, s.Validity = res.Agreement, res.Validity
		if partial {
			s.Agreement = decidedAgree(res)
		}
	}
	if p, ok := obs.(probe); ok {
		p.record(&s)
	}
	return s, nil
}

// decidedAgree reports whether no two decided processes of res hold
// different values.
func decidedAgree(res *sim.Result) bool {
	seen := -1
	for j, ok := range res.Decided {
		if !ok {
			continue
		}
		if seen == -1 {
			seen = res.Decisions[j]
		} else if seen != res.Decisions[j] {
			return false
		}
	}
	return true
}

// halfSpec is the spec of a cell that runs protocol × adversary on the
// half-and-half workload, trial i at seed seed(i). The cell's trials
// share one input vector, read-only: an execution copies its inputs.
func halfSpec(protocol, adversary string, n, t int, seed func(i int) uint64) func(i int) (synran.Spec, error) {
	inputs := workload.HalfHalf(n)
	return func(i int) (synran.Spec, error) {
		return synran.Spec{N: n, T: t, Inputs: inputs, Protocol: protocol, Adversary: adversary, Seed: seed(i)}, nil
	}
}

// scenarioSpec is the spec of a cell configured by a declarative
// scenario, the form a corpus file carries: trial i runs at
// scn.TrialSeed(i).
func scenarioSpec(scn scenario.Scenario) func(i int) (synran.Spec, error) {
	return func(i int) (synran.Spec, error) { return scn.Spec(i, nil, 0) }
}

// stride and offset are the suite's two per-trial seed disciplines:
// trials.Seed's prime stride, and base + i.
func stride(base uint64) func(i int) uint64 {
	return func(i int) uint64 { return trials.Seed(base, i) }
}

func offset(base uint64) func(i int) uint64 {
	return func(i int) uint64 { return base + uint64(i) }
}

// probe is an observer a cell attaches to each trial to measure what
// sim.Result does not carry; record copies its reading into the sample.
type probe interface {
	sim.Observer
	record(*sample)
}

// blockProbe counts crashes per 3-round block, the unit of Theorem 2's
// proof (E8).
type blockProbe struct{ sim.CrashHistogram }

func (b *blockProbe) record(s *sample) { s.Blocks = b.BlockTotals(3) }

// summarize reduces one measurement of a cell's samples, in trial order.
func summarize(ss []sample, f func(sample) int) stats.Summary {
	xs := make([]int, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return stats.SummarizeInts(xs)
}

func halt(s sample) int    { return s.Halt }
func decide(s sample) int  { return s.Decide }
func settle(s sample) int  { return s.Settle }
func crashes(s sample) int { return s.Crashes }

// violations counts the cell's runs that broke agreement or validity.
func violations(ss []sample) int {
	n := 0
	for _, s := range ss {
		if !s.Agreement || !s.Validity {
			n++
		}
	}
	return n
}
