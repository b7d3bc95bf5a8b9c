package experiments

import (
	"fmt"

	"synran"
	"synran/internal/stats"
	"synran/internal/workload"
)

// E5Baselines compares SynRan against the two baselines the paper
// positions it between: the deterministic t+1-round FloodSet protocol
// ("the best known randomized solution is the deterministic t+1-round
// protocol!") and the symmetric-coin Ben-Or variant whose validity the
// one-side-bias rule repairs. Three claims:
//
//  1. FloodSet always takes t+2 engine rounds; SynRan beats it for
//     large t.
//  2. SynRan keeps agreement+validity under every adversary here.
//  3. The symmetric-coin ablation loses validity under a mass crash of
//     1-senders, with all-1 inputs — the paper's motivation for the rule.
func E5Baselines(cfg Config) (*Result, error) {
	n := 128
	if cfg.Quick {
		n = 64
	}
	reps := trialCount(cfg, 6, 25)
	tb := stats.NewTable(fmt.Sprintf("E5: baselines at n = %d", n),
		"protocol", "t", "adversary", "mean rounds", "violations")
	res := &Result{ID: "E5", Table: tb}

	ts := []int{isqrt(n), n / 4, n / 2, n - 1}
	var synRounds, floodRounds float64
	for _, t := range ts {
		// FloodSet: deterministic, exactly t+2 engine rounds.
		flood, err := runNamed(cfg, fmt.Sprintf("E5-t%d-floodset", t), reps, nil,
			halfSpec(synran.ProtocolFloodSet, synran.AdversarySplitVote, n, t, offset(cfg.Seed)))
		if err != nil {
			return nil, err
		}
		fRounds, fViol := summarize(flood, halt), violations(flood)
		tb.AddRow("floodset", t, "splitvote", fRounds.Mean, fViol)

		// Early-stopping deterministic variant: min(f+2, t+2)-ish rounds
		// with f actual crashes — the fair deterministic comparison when
		// the adversary does not spend its budget.
		early, err := runNamed(cfg, fmt.Sprintf("E5-t%d-earlystop", t), reps, nil,
			halfSpec(synran.ProtocolEarlyStop, synran.AdversaryNone, n, t, offset(cfg.Seed)))
		if err != nil {
			return nil, err
		}
		eQuiet, eViol := summarize(early, halt), violations(early)
		tb.AddRow("earlystop", t, "none", eQuiet.Mean, eViol)
		res.Claims = append(res.Claims, Claim{
			Name: fmt.Sprintf("earlystop t=%d is O(1) without actual crashes", t),
			OK:   eQuiet.Max <= 4 && eViol == 0,
			Got:  fmt.Sprintf("rounds=[%.0f,%.0f]", eQuiet.Min, eQuiet.Max),
		})
		res.Claims = append(res.Claims, Claim{
			Name: fmt.Sprintf("floodset t=%d takes exactly t+2 rounds", t),
			OK:   fRounds.Min == float64(t+2) && fRounds.Max == float64(t+2) && fViol == 0,
			Got:  fmt.Sprintf("rounds=[%.0f,%.0f] violations=%d", fRounds.Min, fRounds.Max, fViol),
		})
		if t == n-1 {
			floodRounds = fRounds.Mean
		}

		// SynRan under splitvote.
		ss, err := runSafe(cfg, fmt.Sprintf("E5-t%d-synran", t), reps, cfg.Metrics,
			halfSpec(synran.ProtocolSynRan, synran.AdversarySplitVote, n, t, stride(cfg.Seed+uint64(t))))
		if err != nil {
			return nil, err
		}
		sum := summarize(ss, halt)
		tb.AddRow("synran", t, "splitvote", sum.Mean, 0)
		if t == n-1 {
			synRounds = sum.Mean
		}
	}

	// Symmetric-coin ablation: mass crash of 70% of the 1-senders in
	// round 2 on all-1 inputs. Both coin variants run trial i at the same
	// seed, so the ablation stays a paired comparison.
	ablation := func(protocol string) ([]sample, error) {
		return runNamed(cfg, "E5-ablation-"+protocol, reps, nil, func(i int) (synran.Spec, error) {
			return synran.Spec{N: n, T: n - 1, Inputs: workload.Uniform(n, 1), Protocol: protocol,
				Adversary: synran.AdversaryMassCrash, Seed: cfg.Seed + uint64(i)*31}, nil
		})
	}
	syn, err := ablation(synran.ProtocolSynRan)
	if err != nil {
		return nil, err
	}
	sym, err := ablation(synran.ProtocolBenOr)
	if err != nil {
		return nil, err
	}
	synViol, symViol, symRuns := violations(syn), 0, len(sym)
	for _, s := range sym {
		if !s.Validity {
			symViol++
		}
	}
	tb.AddRow("synran (one-side bias)", n-1, "masscrash-70%", 0.0, synViol)
	tb.AddRow("benor (symmetric coin)", n-1, "masscrash-70%", 0.0, symViol)
	res.Claims = append(res.Claims,
		Claim{
			Name: "SynRan beats FloodSet at t=n-1",
			OK:   synRounds < floodRounds,
			Got:  fmt.Sprintf("synran=%.1f floodset=%.1f", synRounds, floodRounds),
		},
		Claim{
			Name: "one-side bias preserves validity under mass crash",
			OK:   synViol == 0,
			Got:  fmt.Sprintf("violations=%d", synViol),
		},
		Claim{
			Name: "symmetric coin violates validity under mass crash",
			OK:   symViol == symRuns && symRuns > 0,
			Got:  fmt.Sprintf("violations=%d/%d", symViol, symRuns),
		})
	tb.Note = "violations = runs breaking agreement or validity"
	return res, nil
}
