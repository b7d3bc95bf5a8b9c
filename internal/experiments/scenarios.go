package experiments

import (
	"fmt"

	"synran/internal/scenario"
	"synran/internal/stats"
	"synran/internal/trials"
)

// Scenarios runs a corpus of declarative scenario entries as an
// experiment-style table: one row per entry summarizing its trials'
// outcomes, and one checkable claim per entry that carries
// expectations. cmd/synran-bench's -scenario/-scenario-dir mode renders
// the result with the same table machinery as E1–E19, so the corpus
// doubles as a benchmark workload.
func Scenarios(entries []scenario.Entry, cfg Config) (*Result, error) {
	tb := stats.NewTable("SCN: declarative scenario corpus outcomes",
		"scenario", "protocol", "adversary", "n", "t", "trials", "decided 0/1", "mean rounds", "partial", "expect")
	res := &Result{ID: "SCN", Table: tb}

	type entryOutcome struct {
		outs       []scenario.Outcome
		violations []string
	}
	outs, err := trials.RunWorker(cfg.Workers, len(entries), trials.Metered(cfg.Metrics,
		func(worker, i int) (entryOutcome, error) {
			s := entries[i].Scenario
			var eo entryOutcome
			for trial := 0; trial < s.Trials; trial++ {
				o, err := scenario.RunOutcome(&s, trial, cfg.Metrics, worker)
				if err != nil {
					return entryOutcome{}, fmt.Errorf("%s trial %d: %w", entries[i].Name(), trial, err)
				}
				eo.outs = append(eo.outs, o)
				for _, v := range s.CheckExpect(o) {
					eo.violations = append(eo.violations,
						fmt.Sprintf("trial %d (seed %d): %s", trial, s.TrialSeed(trial), v))
				}
			}
			return eo, nil
		}))
	if err != nil {
		return nil, err
	}

	for i, eo := range outs {
		s := entries[i].Scenario
		decided := map[int]int{}
		partials := 0
		var rounds []float64
		for _, o := range eo.outs {
			decided[o.Decided]++
			if o.Partial {
				partials++
			}
			rounds = append(rounds, float64(o.Rounds))
		}
		expectCol := "—"
		if s.Expect.Any() {
			expectCol = "ok"
			if len(eo.violations) > 0 {
				expectCol = fmt.Sprintf("%d FAIL", len(eo.violations))
			}
		}
		tb.AddRow(entries[i].Name(), s.Protocol, s.Adversary, s.N, s.T, s.Trials,
			fmt.Sprintf("%d/%d", decided[0], decided[1]),
			stats.Summarize(rounds).Mean, partials, expectCol)
		if s.Expect.Any() {
			got := "all trials within expectations"
			if len(eo.violations) > 0 {
				got = eo.violations[0]
			}
			res.Claims = append(res.Claims, Claim{
				Name: fmt.Sprintf("%s: expectations hold", entries[i].Name()),
				OK:   len(eo.violations) == 0,
				Got:  got,
			})
		}
	}
	tb.Note = "decided -1 counts undecided (partial) trials; entries without expectations contribute no claims"
	return res, nil
}
