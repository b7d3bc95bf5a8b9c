package experiments

import (
	"fmt"

	"synran/internal/adversary"
	"synran/internal/core"
	"synran/internal/stats"
	"synran/internal/workload"
)

// E13SharedCoin reproduces the paper's opening observation: "assuming
// reasonable bounds on the power of the adversary there are synchronous
// randomized agreement protocols that require only constant expected
// number of rounds [CMS89, Rab83, FM97]" — and that therefore "some
// restrictions are needed on the power of the adversary to allow
// randomized constant expected number of rounds protocols".
//
// A Rabin-style common coin is such a restriction escape: with every
// undecided process adopting the SAME unpredictable bit, the adversary
// can no longer split the coin-flippers, and SynRan's settle time drops
// to O(1) even under the adaptive split-vote adversary — at every n.
// Private coins, the paper's model, show the growing settle time of E11
// under the same adversary.
func E13SharedCoin(cfg Config) (*Result, error) {
	ns := sizes(cfg, []int{32, 128}, []int{32, 128, 512})
	reps := trialCount(cfg, 8, 30)
	tb := stats.NewTable("E13: Rabin-style common coin escapes the lower bound (Section 1)",
		"coin", "n", "t", "mean settle rounds", "mean halt rounds")
	res := &Result{ID: "E13", Table: tb}

	type cell struct {
		key, name string
		opts      func(seed uint64) core.Options
	}
	cells := []cell{
		{"private", "private (paper model)", func(uint64) core.Options { return core.Options{} }},
		{"common", "common (Rabin-style)", func(seed uint64) core.Options {
			return core.Options{SharedCoinSeed: seed | 1}
		}},
	}
	means := make(map[string][]float64)
	for _, n := range ns {
		t := n - 1
		inputs := workload.HalfHalf(n) // shared read-only by the cells' trials
		for _, c := range cells {
			key := fmt.Sprintf("E13-n%d-%s", n, c.key)
			ss, err := runCell(cfg, key, reps, nil, func(_, i int) (sample, error) {
				seed := cfg.Seed + uint64(n*100+i)
				obs := &stabilizationObserver{}
				run, err := core.Run(core.RunSpec{
					N: n, T: t,
					Inputs:    inputs,
					Opts:      c.opts(seed),
					Seed:      seed,
					Adversary: &adversary.SplitVote{},
					Observer:  obs,
				})
				return sampleOf(run, err, obs)
			})
			if err == nil {
				err = checkSafe(key, ss, false)
			}
			if err != nil {
				return nil, err
			}
			st := summarize(ss, settle)
			tb.AddRow(c.name, n, t, st.Mean, summarize(ss, halt).Mean)
			means[c.name] = append(means[c.name], st.Mean)
		}
	}
	common := means["common (Rabin-style)"]
	private := means["private (paper model)"]
	res.Claims = append(res.Claims,
		Claim{
			Name: "common coin settles in O(1) under the adaptive adversary",
			OK:   common[len(common)-1] < 2*common[0] && common[len(common)-1] <= 8,
			Got:  fmt.Sprintf("settle rounds across n sweep: %v", common),
		},
		Claim{
			Name: "private coins settle slower and grow with n (the lower-bound regime)",
			OK:   private[len(private)-1] > common[len(common)-1],
			Got: fmt.Sprintf("private %v vs common %v at the largest n",
				private[len(private)-1], common[len(common)-1]),
		})
	tb.Note = "the common coin is outside the paper's model: it is the restriction that buys O(1)"
	return res, nil
}
