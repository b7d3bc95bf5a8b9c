package experiments

import (
	"fmt"

	"synran"
	"synran/internal/stats"
)

// E14Byzantine reproduces the paper's introductory Byzantine context:
// "efficient t+1 round agreement protocols are known even for Byzantine
// adversaries [GM93]" — deterministic Byzantine agreement runs in Θ(t)
// rounds. Phase King (the textbook polynomial protocol of that family,
// at 2 rounds per phase) is measured under the worst-case equivocating
// adversary that corrupts the kings of the first t phases:
//
//   - rounds are exactly 2(t+1)+1 — linear in t, deterministic;
//   - agreement and validity hold among the correct processes whenever
//     n > 4t, including with unanimous correct inputs (persistence).
func E14Byzantine(cfg Config) (*Result, error) {
	tsList := sizes(cfg, []int{1, 2}, []int{1, 2, 4, 8})
	reps := trialCount(cfg, 5, 20)
	tb := stats.NewTable("E14: deterministic Byzantine agreement is Θ(t) rounds (Phase King, [GM93] context)",
		"n", "t", "adversary", "mean rounds", "expected 2(t+1)+1", "violations")
	res := &Result{ID: "E14", Table: tb}

	for _, t := range tsList {
		n := 4*t + 1
		ss, err := runNamed(cfg, fmt.Sprintf("E14-t%d", t), reps, nil,
			halfSpec(synran.ProtocolPhaseKing, synran.AdversaryEquivocator, n, t, offset(cfg.Seed+uint64(t*100))))
		if err != nil {
			return nil, err
		}
		sum, viol := summarize(ss, halt), violations(ss)
		want := float64(2*(t+1) + 1)
		tb.AddRow(n, t, "equivocator", sum.Mean, want, viol)
		res.Claims = append(res.Claims,
			Claim{
				Name: fmt.Sprintf("t=%d: Phase King takes exactly 2(t+1)+1 rounds", t),
				OK:   sum.Min == want && sum.Max == want,
				Got:  fmt.Sprintf("rounds=[%.0f,%.0f] want %v", sum.Min, sum.Max, want),
			},
			Claim{
				Name: fmt.Sprintf("t=%d: no safety violations among correct processes", t),
				OK:   viol == 0,
				Got:  fmt.Sprintf("violations=%d/%d", viol, reps),
			})
	}
	tb.Note = "n = 4t+1 (the protocol's resilience bound); the adversary corrupts the kings of the first t phases and equivocates"
	return res, nil
}
