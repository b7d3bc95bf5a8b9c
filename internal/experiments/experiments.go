// Package experiments regenerates every quantitative claim of the paper
// (the experiment index E1–E19 in DESIGN.md). Each experiment returns a
// rendered table plus machine-checkable claims; cmd/synran-bench prints
// the tables, the test suite asserts the claims, and bench_test.go wraps
// each experiment in a testing.B target. Every experiment that runs
// consensus executions batches them through one cell runner (cell.go),
// which returns each table cell's per-trial samples.
package experiments

import (
	"fmt"
	"io"

	"synran/internal/metrics"
	"synran/internal/stats"
	"synran/internal/trials"
)

// Config scales the experiments.
type Config struct {
	// Quick reduces sizes and trial counts (used by tests and -short
	// benches); the full configuration reproduces EXPERIMENTS.md.
	Quick bool
	// Seed drives all randomness; identical seeds reproduce tables
	// exactly.
	Seed uint64
	// Workers bounds the trial worker pool shared by every experiment
	// (0 = all cores). Tables are byte-identical at every worker count:
	// each trial derives its randomness from (Seed, trial index) alone,
	// and internal/trials collects results in index order.
	Workers int
	// Metrics, when non-nil, receives instrument emissions from every
	// execution the experiments run. The merged export obeys the same
	// worker-count invariance as the tables; see internal/metrics.
	Metrics *metrics.Engine
	// Durable configures checkpointing and resume for every experiment
	// cell's trial batch (see runCell and trials.DurableWorker). The zero
	// value changes nothing.
	Durable trials.Durability
}

// Claim is one checkable assertion extracted from an experiment run.
type Claim struct {
	Name string
	OK   bool
	Got  string
}

// Result bundles an experiment's table with its claims.
type Result struct {
	ID     string
	Table  *stats.Table
	Claims []Claim
}

// Failed returns the failed claims.
func (r *Result) Failed() []Claim {
	var out []Claim
	for _, c := range r.Claims {
		if !c.OK {
			out = append(out, c)
		}
	}
	return out
}

// Experiment is a named experiment runner.
type Experiment struct {
	ID   string
	Desc string
	Run  func(Config) (*Result, error)
}

// All returns every experiment in index order.
func All() []Experiment {
	return []Experiment{
		{"E1", "one-round coin-game control (Cor. 2.2)", E1CoinControl},
		{"E2", "one-sided bias of majority-default-0 (Sec. 2.1)", E2OneSidedBias},
		{"E3", "SynRan expected rounds vs n at t=n-1 (Thm 2/3)", E3ScaleN},
		{"E4", "SynRan expected rounds vs t at fixed n (Thm 3)", E4ScaleT},
		{"E5", "baseline comparison and the one-side-bias ablation", E5Baselines},
		{"E6", "valency lower-bound adversary (Thm 1)", E6LowerBound},
		{"E7", "binomial deviation bound (Lemma 4.4 / Cor. 4.5)", E7Deviation},
		{"E8", "adversary crash cost per 3-round block (Thm 2 engine)", E8AdversaryCost},
		{"E9", "agreement/validity/termination sweep (Sec. 3.1)", E9Safety},
		{"E10", "Schechtman ball growth (engine of Lemma 2.1)", E10Schechtman},
		{"E11", "adaptive vs non-adaptive adversaries (Sec. 1.2)", E11AdaptivityGap},
		{"E12", "multi-round coin-flipping control (Sec. 1.2 / [Asp97])", E12IteratedGames},
		{"E13", "Rabin-style common coin escapes the lower bound (Sec. 1)", E13SharedCoin},
		{"E14", "deterministic Byzantine agreement is Θ(t) rounds (Sec. 1 / [GM93])", E14Byzantine},
		{"E15", "the asynchronous contrast: FLP and Aspnes (Sec. 1.2)", E15Asynchrony},
		{"E16", "lossy links as send-omission demotions vs drop rate", E16ChaosDegradation},
		{"E17", "SoA engine at paper scale: n = 1e5..1e6 bound shapes (Thm 1/3)", E17ScaleSoA},
		{"E18", "adaptive-omission families: fault budget vs crash budget", E18OmissionFamilies},
		{"E19", "the ε-delayed adversary vs the adaptive baseline (Thm 1 adaptivity)", E19LateAdversary},
	}
}

// RunAll executes every experiment and renders its table to w. It
// returns an error listing any failed claims.
func RunAll(cfg Config, w io.Writer) error {
	var failures []string
	for _, ex := range All() {
		res, err := ex.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", ex.ID, err)
		}
		if err := res.Table.Render(w); err != nil {
			return err
		}
		for _, c := range res.Failed() {
			failures = append(failures, fmt.Sprintf("%s/%s (%s)", ex.ID, c.Name, c.Got))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("failed claims: %v", failures)
	}
	return nil
}

// sizes picks between quick and full parameter lists.
func sizes(cfg Config, quick, full []int) []int {
	if cfg.Quick {
		return quick
	}
	return full
}

// trialCount picks between quick and full trial counts.
func trialCount(cfg Config, quick, full int) int {
	if cfg.Quick {
		return quick
	}
	return full
}
