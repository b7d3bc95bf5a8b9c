package experiments

import (
	"fmt"
	"strings"

	"synran"
	"synran/internal/scenario"
	"synran/internal/stats"
)

// E16ChaosDegradation measures what lossy links cost: the engineering
// counterpart of the paper's idealized §3.1 model, where message
// delivery within a round is an axiom. The links run on the lock-step
// engine as an omission adversary (chaos.Lossy): a sender whose round
// message some receiver still misses after two re-sends is demoted, a
// send-omission fault charged to the fault budget (here t), never to
// the crash budget. A demotion is crash-equivalent to every receiver,
// so a protocol that tolerates omissions (synran.ProtocolFaults) must
// stay safe at every rate, and what the links cost is rounds and
// budget. Ben-Or's symmetric coin tolerates no fault class: its rows
// are the ablation and report their violations as E5 does. Each
// (protocol, rate) cell is configured by a declarative
// scenario.Scenario — the form a corpus file carries — whose seed base
// keeps the per-trial seed formula cfg.Seed + pi*10000 + ri*1000 + i.
// The claims are counts:
//
//  1. At rate 0 no protocol demotes anyone.
//  2. At the top rate every protocol demotes someone.
//  3. No trial demotes more senders than its fault budget.
//  4. No trial of an omission-tolerant protocol breaks agreement or
//     validity, or is cut at the round cap.
func E16ChaosDegradation(cfg Config) (*Result, error) {
	n := 9
	t := 3 // Ben-Or needs t < n/2; the fault budget is charged separately
	rates := []float64{0, 0.05, 0.15, 0.30}
	if cfg.Quick {
		rates = []float64{0, 0.15, 0.30}
	}
	reps := trialCount(cfg, 4, 10)
	tb := stats.NewTable("E16: lossy links as send-omission demotions vs drop rate (Sec. 3.1 contrast)",
		"protocol", "drop rate", "n", "t", "mean rounds", "demoted", "at budget", "cut", "violations")
	res := &Result{ID: "E16", Table: tb}

	protocols := []string{synran.ProtocolSynRan, synran.ProtocolFloodSet, synran.ProtocolBenOr}
	maxDemoted := 0
	var unsafe []string // omission-tolerant cells with a violation or a cut trial
	for pi, p := range protocols {
		model, err := synran.ProtocolFaults(p)
		if err != nil {
			return nil, err
		}
		for ri, rate := range rates {
			// Rate 0 is spelled "none": lossy links with an armed
			// zero-rate injector, so claim 1 exercises the wrapper.
			chaosSpec := "none"
			if rate > 0 {
				chaosSpec = fmt.Sprintf("drop=%v", rate)
			}
			scn, err := scenario.Scenario{
				Protocol: p, Adversary: synran.AdversaryNone, Workload: "half",
				N: n, T: t, Seed: cfg.Seed + uint64(pi*10000+ri*1000),
				Chaos: chaosSpec, FaultBudget: t, Trials: reps,
			}.Normalized()
			if err != nil {
				return nil, err
			}
			key := fmt.Sprintf("E16-%s-drop%.2f", p, rate)
			ss, err := runNamed(cfg, key, reps, cfg.Metrics, scenarioSpec(scn))
			if err != nil {
				return nil, err
			}
			var rounds []int
			demoted, atBudget, cut, violated := 0, 0, 0, 0
			for _, s := range ss {
				demoted += s.Faults.Demoted
				maxDemoted = max(maxDemoted, s.Faults.Demoted)
				if s.Faults.Demoted == t {
					atBudget++
				}
				switch {
				case s.Partial:
					cut++
					continue
				case !s.Agreement || !s.Validity:
					violated++
				}
				rounds = append(rounds, s.Halt)
			}
			tb.AddRow(p, fmt.Sprintf("%.2f", rate), n, t, stats.SummarizeInts(rounds).Mean,
				demoted, atBudget, cut, violated)
			if model.Tolerates&synran.FaultOmission != 0 && cut+violated > 0 {
				unsafe = append(unsafe, fmt.Sprintf("%s: %d cut, %d violations", key, cut, violated))
			}
			switch rate {
			case 0:
				res.Claims = append(res.Claims, Claim{
					Name: fmt.Sprintf("%s: rate 0 demotes no one", p),
					OK:   demoted == 0,
					Got:  fmt.Sprintf("demoted %d", demoted),
				})
			case rates[len(rates)-1]:
				res.Claims = append(res.Claims, Claim{
					Name: fmt.Sprintf("%s: the top drop rate demotes senders", p),
					OK:   demoted > 0,
					Got:  fmt.Sprintf("demoted %d, %d/%d trials at the budget", demoted, atBudget, reps),
				})
			}
		}
	}
	got := "no violation or cut trial"
	if len(unsafe) > 0 {
		got = strings.Join(unsafe, "; ")
	}
	res.Claims = append(res.Claims,
		Claim{
			Name: fmt.Sprintf("no trial demotes past its fault budget (t = %d)", t),
			OK:   maxDemoted <= t,
			Got:  fmt.Sprintf("at most %d demotions in one trial", maxDemoted),
		},
		Claim{
			Name: "omission-tolerant protocols stay safe and terminate at every drop rate",
			OK:   len(unsafe) == 0,
			Got:  got,
		})
	tb.Note = "adversary none; fault budget = t; a demoted sender's message reaches the receivers that got it; benor is the symmetric-coin ablation (no fault class tolerated)"
	return res, nil
}
