package experiments

import (
	"fmt"

	"synran/internal/scenario"
	"synran/internal/stats"
)

// asyncSample is one E15 trial's outcome, its journal shard under
// -checkpoint: whether the run terminated before the delivery cap, and
// if so the Ben-Or processes' highest phase and total coin flips.
type asyncSample struct {
	Terminated      bool
	MaxPhase, Flips int
}

// E15Asynchrony reproduces the asynchronous context of Section 1.2: the
// paper contrasts its synchronous bounds with FLP impossibility ("there
// are no fault-tolerant deterministic asynchronous agreement protocols
// [FLP85]") and with Aspnes' asynchronous lower bound on coin flips.
// Three measurements on asynchronous Ben-Or:
//
//  1. FLP: the deterministic (parity-coin) variant under the adaptive
//     splitter scheduler never terminates — every run hits the step cap
//     with all processes alive and undecided.
//  2. Randomization escapes FLP: the same scheduler cannot loop the
//     private-coin variant forever; runs terminate with agreement.
//  3. The adaptive scheduler extracts more coin flips and phases than
//     the benign FIFO network — the regime of Aspnes' Ω(t²/log² t)
//     total-coin-flip bound.
func E15Asynchrony(cfg Config) (*Result, error) {
	ns := sizes(cfg, []int{4, 8}, []int{4, 8, 12})
	reps := trialCount(cfg, 6, 12)
	tb := stats.NewTable("E15: the asynchronous contrast (FLP / Aspnes, Section 1.2)",
		"coin", "scheduler", "n", "t", "terminated", "mean phases", "mean flips")
	res := &Result{ID: "E15", Table: tb}

	type cell struct {
		label, coin, sched string
		cap                int
	}
	for _, n := range ns {
		t := (n - 1) / 2
		cells := []cell{
			{"parity (deterministic)", "parity", "splitter", 1500 * n},
			{"random", "random", "fifo", 0},
			{"random", "random", "splitter", 25000 * n},
		}
		fifoFlips, splitterFlips := -1.0, -1.0
		for ci, c := range cells {
			s, err := scenario.Scenario{
				Protocol: scenario.ProtocolAsyncBenOr, Adversary: c.sched, Coin: c.coin,
				Workload: "half", N: n, T: t, Seed: cfg.Seed + uint64(n*1000+ci*100),
				MaxRounds: c.cap, Trials: reps,
			}.Normalized()
			if err != nil {
				return nil, err
			}
			key := fmt.Sprintf("E15-n%d-%s-%s", n, c.coin, c.sched)
			runs, err := runCell(cfg, key, reps, nil, func(_, i int) (asyncSample, error) {
				run, err := scenario.RunAsync(&s, i, nil)
				if err != nil || run.Res == nil {
					return asyncSample{}, err
				}
				if !run.Res.Agreement || !run.Res.Validity {
					return asyncSample{}, fmt.Errorf("async safety violated: %s n=%d", c.label, n)
				}
				return asyncSample{Terminated: true, MaxPhase: run.MaxPhase, Flips: run.Flips}, nil
			})
			if err != nil {
				return nil, err
			}
			terminated := 0
			var phases, flips []float64
			for _, r := range runs {
				if !r.Terminated {
					continue // non-termination: counted by omission
				}
				terminated++
				phases = append(phases, float64(r.MaxPhase))
				flips = append(flips, float64(r.Flips))
			}
			ps, fs := stats.Summarize(phases), stats.Summarize(flips)
			tb.AddRow(c.label, c.sched, n, t,
				fmt.Sprintf("%d/%d", terminated, reps), ps.Mean, fs.Mean)
			switch {
			case c.coin == "parity":
				res.Claims = append(res.Claims, Claim{
					Name: fmt.Sprintf("n=%d: FLP — deterministic variant never terminates under the splitter", n),
					OK:   terminated == 0,
					Got:  fmt.Sprintf("terminated %d/%d", terminated, reps),
				})
			case c.sched == "fifo":
				fifoFlips = fs.Mean
				res.Claims = append(res.Claims, Claim{
					Name: fmt.Sprintf("n=%d: randomized Ben-Or terminates under FIFO", n),
					OK:   terminated == reps,
					Got:  fmt.Sprintf("terminated %d/%d", terminated, reps),
				})
			default:
				splitterFlips = fs.Mean
				// Unlike the deterministic variant, randomization escapes:
				// SOME runs finish within the (finite) cap. At larger n the
				// cap binds more runs, which is itself the Aspnes story —
				// the adaptive scheduler extracts ever more flips.
				res.Claims = append(res.Claims, Claim{
					Name: fmt.Sprintf("n=%d: randomization escapes the splitter (some runs finish)", n),
					OK:   terminated > 0,
					Got:  fmt.Sprintf("terminated %d/%d", terminated, reps),
				})
			}
		}
		if fifoFlips >= 0 && splitterFlips > 0 {
			res.Claims = append(res.Claims, Claim{
				Name: fmt.Sprintf("n=%d: the adaptive scheduler extracts more coin flips than FIFO", n),
				OK:   splitterFlips > fifoFlips,
				Got:  fmt.Sprintf("splitter %.0f vs fifo %.0f flips", splitterFlips, fifoFlips),
			})
		}
	}
	tb.Note = "phases/flips are means over terminating runs; the deterministic row's emptiness IS the FLP claim"
	return res, nil
}
