package experiments

import (
	"fmt"

	"synran"
	"synran/internal/core"
	"synran/internal/scenario"
	"synran/internal/stats"
)

// This file holds the adversary-family experiments: E18 measures the
// adaptive-omission model (demotions charged to the fault budget, not
// the crash budget t), E19 the ε-delayed ("late") adversary whose
// choices come from a view Delay rounds stale. Both plot measured round
// complexity next to the paper's Thm 1 floor t/(4·sqrt(n·log n) + 1) —
// the bound is proved for the adaptive fail-stop model, so E19's gap
// between the adaptive and late columns is exactly the adaptivity the
// proof spends its budget on.

// famCell is one (protocol, adversary) grid cell shared by E18/E19.
type famCell struct {
	protocol, adversary string
}

// E18OmissionFamilies measures the adaptive-omission adversary family
// against the paper's protocol and the omission-tolerant FloodSet. The
// model splits the fault ledger: omissions demote the sender (it keeps
// computing but is no longer delivered to anyone) and are charged to an
// explicit fault budget, while the crash budget t stays untouched —
// every engine must report Crashes = 0 and Demoted <= budget. Claims:
//
//  1. Safety (Agreement+Validity) holds on every trial of every cell.
//  2. The ledger split is respected: zero crashes, demotions within
//     the fault budget, on every trial.
//  3. The split-mode adversary actually spends its budget (the family
//     is not a no-op), and omitflood's halt round is the deterministic
//     2t+2 of its t+extra+1 = 2t+1 flooding rounds — omissions cost it
//     budget, never rounds.
func E18OmissionFamilies(cfg Config) (*Result, error) {
	n, t := 9, 3
	if !cfg.Quick {
		n, t = 15, 5
	}
	reps := trialCount(cfg, 4, 12)
	tb := stats.NewTable("E18: adaptive-omission families vs the Thm 1 floor (fault budget, not crash budget)",
		"protocol", "adversary", "n", "t", "budget", "mean decide", "mean halt", "demoted", "crashes", "Thm1 floor")
	res := &Result{ID: "E18", Table: tb}

	cells := []famCell{
		{synran.ProtocolSynRan, synran.AdversaryOmissionSplit},
		{synran.ProtocolSynRan, synran.AdversaryOmissionRandom},
		{synran.ProtocolOmitFlood, synran.AdversaryOmissionSplit},
		{synran.ProtocolOmitFlood, synran.AdversaryOmissionRandom},
	}
	floor := core.LowerBoundRounds(n, t)
	for ci, cell := range cells {
		scn, err := scenario.Scenario{
			Protocol: cell.protocol, Adversary: cell.adversary, Workload: "half",
			N: n, T: t, Seed: cfg.Seed + uint64(ci*10000),
			FaultBudget: t, Trials: reps,
		}.Normalized()
		if err != nil {
			return nil, err
		}
		ss, err := runSafe(cfg, fmt.Sprintf("E18-%s-%s", cell.protocol, cell.adversary), reps, cfg.Metrics, scenarioSpec(scn))
		if err != nil {
			return nil, err
		}
		demoted, crashed, overBudget := 0, 0, 0
		for _, s := range ss {
			demoted += s.Faults.Demoted
			crashed += s.Crashes
			if s.Faults.Demoted > t {
				overBudget++
			}
		}
		ds, hs := summarize(ss, decide), summarize(ss, halt)
		tb.AddRow(cell.protocol, cell.adversary, n, t, t,
			ds.Mean, hs.Mean, demoted, crashed, floor)
		res.Claims = append(res.Claims, Claim{
			Name: fmt.Sprintf("%s/%s: demotions stay on the fault ledger", cell.protocol, cell.adversary),
			OK:   crashed == 0 && overBudget == 0,
			Got:  fmt.Sprintf("crashes=%d, trials over budget=%d (total demoted %d)", crashed, overBudget, demoted),
		})
		if cell.adversary == synran.AdversaryOmissionSplit {
			res.Claims = append(res.Claims, Claim{
				Name: fmt.Sprintf("%s/%s: the split adversary spends its budget", cell.protocol, cell.adversary),
				OK:   demoted == reps*t,
				Got:  fmt.Sprintf("demoted %d over %d trials (budget %d each)", demoted, reps, t),
			})
		}
		if cell.protocol == synran.ProtocolOmitFlood {
			want := float64(2*t + 2)
			res.Claims = append(res.Claims, Claim{
				Name: fmt.Sprintf("%s/%s: omissions cost budget, never rounds (halt = 2t+2)", cell.protocol, cell.adversary),
				OK:   hs.Min == want && hs.Max == want,
				Got:  fmt.Sprintf("halt min=%.0f max=%.0f, want %0.f", hs.Min, hs.Max, want),
			})
		}
	}
	res.Claims = append(res.Claims, Claim{
		Name: "safety holds on every trial of every omission cell",
		OK:   true, // runSafe fails the experiment on the first violation
		Got:  "no violation",
	})
	tb.Note = "fault budget = t; Thm 1 floor is t/(4*sqrt(n*log n)+1) — it binds crashes, and the crash column stays 0"
	return res, nil
}

// E19LateAdversary measures the ε-delayed adversary: its Plan runs on a
// view Delay rounds stale, so it spends the same crash budget t as the
// adaptive SplitVote but aims it with outdated information. The paper's
// Thm 1 proof charges its budget to an adversary that sees the current
// round; E19 shows that adaptivity is load-bearing — the late variant
// forces measurably fewer rounds at matching (n, t) — and that the
// latebeacon protocol (vote/beacon phases with a 3/sqrt(n) leader
// election, t < n/3) stays fast even against it. Claims:
//
// Cells share one seed base, so the comparison is paired: trial i of
// every cell runs the same inputs and the same protocol randomness, and
// the only difference is what the adversary can see. Claims:
//
//  1. Safety holds on every trial of every cell.
//  2. The late adversary forces fewer rounds than the adaptive one on
//     the same protocol at matching (n, t).
//  3. latebeacon under the late adversary decides below the adaptive
//     fail-stop baseline's round count (halt is decide+2 by design, so
//     decide rounds are the comparable column).
func E19LateAdversary(cfg Config) (*Result, error) {
	n, t := 10, 3
	if !cfg.Quick {
		n, t = 22, 7
	}
	reps := trialCount(cfg, 4, 12)
	tb := stats.NewTable("E19: the ε-delayed adversary vs the adaptive baseline (Thm 1's adaptivity is load-bearing)",
		"protocol", "adversary", "n", "t", "mean decide", "mean halt", "crashes", "Thm1 floor")
	res := &Result{ID: "E19", Table: tb}

	cells := []famCell{
		{synran.ProtocolSynRan, synran.AdversarySplitVote},
		{synran.ProtocolSynRan, synran.AdversaryLateSplit},
		{synran.ProtocolLateBeacon, synran.AdversaryNone},
		{synran.ProtocolLateBeacon, synran.AdversaryLateSplit},
	}
	floor := core.LowerBoundRounds(n, t)
	meanHalt := map[famCell]float64{}
	meanDecide := map[famCell]float64{}
	for _, cell := range cells {
		// Every cell uses the same seed base: paired trials, identical
		// inputs and protocol randomness, only the adversary differs.
		scn, err := scenario.Scenario{
			Protocol: cell.protocol, Adversary: cell.adversary, Workload: "half",
			N: n, T: t, Seed: cfg.Seed, Trials: reps,
		}.Normalized()
		if err != nil {
			return nil, err
		}
		ss, err := runSafe(cfg, fmt.Sprintf("E19-%s-%s", cell.protocol, cell.adversary), reps, cfg.Metrics, scenarioSpec(scn))
		if err != nil {
			return nil, err
		}
		crashed := 0
		for _, s := range ss {
			crashed += s.Crashes
		}
		ds, hs := summarize(ss, decide), summarize(ss, halt)
		meanHalt[cell] = hs.Mean
		meanDecide[cell] = ds.Mean
		tb.AddRow(cell.protocol, cell.adversary, n, t, ds.Mean, hs.Mean, crashed, floor)
	}
	adaptive := meanHalt[famCell{synran.ProtocolSynRan, synran.AdversarySplitVote}]
	late := meanHalt[famCell{synran.ProtocolSynRan, synran.AdversaryLateSplit}]
	beacon := meanDecide[famCell{synran.ProtocolLateBeacon, synran.AdversaryLateSplit}]
	adaptiveDecide := meanDecide[famCell{synran.ProtocolSynRan, synran.AdversarySplitVote}]
	res.Claims = append(res.Claims,
		Claim{
			Name: "safety holds on every trial of every cell",
			OK:   true, // runSafe fails the experiment on the first violation
			Got:  "no violation",
		},
		Claim{
			Name: fmt.Sprintf("the late adversary forces fewer rounds than the adaptive one (n=%d, t=%d)", n, t),
			OK:   late < adaptive,
			Got:  fmt.Sprintf("late mean halt %.2f vs adaptive %.2f", late, adaptive),
		},
		Claim{
			Name: "latebeacon under the late adversary decides below the adaptive fail-stop baseline",
			OK:   beacon < adaptiveDecide,
			Got:  fmt.Sprintf("latebeacon mean decide %.2f vs adaptive baseline %.2f", beacon, adaptiveDecide),
		})
	tb.Note = "late adversaries replan from a view 2 rounds stale; the Thm 1 floor assumes a same-round adaptive adversary"
	return res, nil
}
