package experiments

import (
	"fmt"

	"synran"
	"synran/internal/scenario"
	"synran/internal/sim"
	"synran/internal/stats"
)

// E16ChaosDegradation measures how termination degrades as the live
// runner's links drop messages — the engineering counterpart of the
// paper's idealized §3.1 model, where message delivery within a round
// is an axiom. The live runner (internal/netsim) converts every
// unrecovered omission into a crash fault charged to an explicit budget,
// so fail-stop semantics — and therefore the protocols' safety — must
// survive any omission rate; what gives way is termination: demotions
// consume the budget and runs start degrading into typed partial
// results. Each (protocol, rate) cell is configured by a declarative
// scenario.Scenario — the same form a corpus file carries — whose seed
// base preserves the historical per-trial seed formula
// cfg.Seed + pi*10000 + ri*1000 + i. Three claims per protocol:
//
//  1. At rate 0 the live runner is byte-identical to a fault-free
//     execution: every trial completes and the fault counters stay zero.
//  2. Safety (Agreement+Validity) holds at every rate — completed runs
//     satisfy both, and even degraded partial results never contain two
//     different decided values.
//  3. At the top rate the substrate visibly bites: omissions are
//     dropped, senders are demoted, and at least one run degrades.
func E16ChaosDegradation(cfg Config) (*Result, error) {
	n := 9
	t := 3 // Ben-Or needs t < n/2; the fault budget is charged separately
	rates := []float64{0, 0.05, 0.15, 0.30}
	if cfg.Quick {
		rates = []float64{0, 0.15, 0.30}
	}
	reps := trialCount(cfg, 4, 10)
	tb := stats.NewTable("E16: termination degradation vs omission rate (chaos runner, Sec. 3.1 contrast)",
		"protocol", "drop rate", "n", "t", "completed", "degraded", "mean rounds", "dropped", "demoted")
	res := &Result{ID: "E16", Table: tb}

	protocols := []string{synran.ProtocolSynRan, synran.ProtocolFloodSet, synran.ProtocolBenOr}

	safetyHolds := true
	safetyGot := "no violation at any rate"
	for pi, p := range protocols {
		for ri, rate := range rates {
			// Rate 0 is spelled "none": the live runner with an armed
			// zero-rate injector, so claim 1 exercises the lossy-link path.
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
			if err == nil {
				// Degraded runs are expected here, and must still never
				// contain two different decided values.
				err = checkSafe(key, ss, true)
			}
			if err != nil {
				// A safety violation inside a trial is an experiment failure,
				// not a harness error: surface it as the failed claim.
				safetyHolds = false
				safetyGot = err.Error()
				continue
			}
			completed := 0
			var rounds []int
			var agg sim.Faults
			for _, s := range ss {
				agg.Dropped += s.Faults.Dropped
				agg.Demoted += s.Faults.Demoted
				if !s.Partial {
					completed++
					rounds = append(rounds, s.Halt)
				}
			}
			degraded := reps - completed
			tb.AddRow(p, fmt.Sprintf("%.2f", rate), n, t,
				fmt.Sprintf("%d/%d", completed, reps), degraded,
				stats.SummarizeInts(rounds).Mean, agg.Dropped, agg.Demoted)
			switch {
			case rate == 0:
				res.Claims = append(res.Claims, Claim{
					Name: fmt.Sprintf("%s: rate 0 is fault-free and always completes", p),
					OK:   completed == reps && agg == (sim.Faults{}),
					Got:  fmt.Sprintf("completed %d/%d, faults %+v", completed, reps, agg),
				})
			case rate == rates[len(rates)-1]:
				res.Claims = append(res.Claims, Claim{
					Name: fmt.Sprintf("%s: the top omission rate visibly bites", p),
					OK:   agg.Dropped > 0 && agg.Demoted > 0,
					Got:  fmt.Sprintf("dropped %d, demoted %d, degraded %d/%d", agg.Dropped, agg.Demoted, degraded, reps),
				})
			}
		}
	}
	res.Claims = append(res.Claims, Claim{
		Name: "safety holds at every omission rate (fail-stop conversion preserved)",
		OK:   safetyHolds,
		Got:  safetyGot,
	})
	tb.Note = "adversary none; fault budget = t; degraded runs end with a typed error and partial fault accounting"
	return res, nil
}
