package experiments

import (
	"fmt"

	"synran"
	"synran/internal/core"
	"synran/internal/stats"
)

// E3ScaleN measures SynRan's halt rounds against the Theorem 2/3
// upper-bound shape in n at t = n−1, fault-free and under the SplitVote
// adversary, on paired seeds. Its claims are one-sided: the SplitVote
// rounds grow no faster in n than the sqrt(n / log n) shape, and their
// ratio to it stays within a factor 4 across the sweep. SplitVote is
// the adversary Theorem 2 analyzes, not a proven worst case for SynRan.
func E3ScaleN(cfg Config) (*Result, error) {
	ns := sizes(cfg, []int{32, 64, 128}, []int{32, 64, 128, 256, 512, 1024})
	reps := trialCount(cfg, 8, 30)
	tb := stats.NewTable("E3: SynRan rounds vs n at t = n-1 (Theorems 2/3)",
		"n", "adversary", "mean rounds", "p90", "max", "bound Θ(t/sqrt(n log(2+t/sqrt n)))", "ratio")
	res := &Result{ID: "E3", Table: tb}

	var (
		ratios      []float64
		xsN, ysMean []float64
	)
	for _, n := range ns {
		t := n - 1
		bound := core.UpperBoundRounds(n, t)
		for _, adv := range []string{synran.AdversaryNone, synran.AdversarySplitVote} {
			ss, err := runSafe(cfg, fmt.Sprintf("E3-n%d-%s", n, adv), reps, cfg.Metrics,
				halfSpec(synran.ProtocolSynRan, adv, n, t, stride(cfg.Seed+uint64(n))))
			if err != nil {
				return nil, err
			}
			sum := summarize(ss, halt)
			ratio := sum.Mean / bound
			tb.AddRow(n, adv, sum.Mean, sum.P90, sum.Max, bound, ratio)
			if adv == synran.AdversarySplitVote {
				ratios = append(ratios, ratio)
				xsN = append(xsN, float64(n))
				ysMean = append(ysMean, sum.Mean)
			}
		}
	}
	// Empirical growth exponent: the bound shape is ~ n^0.5 / sqrt(log),
	// i.e. an exponent a little below 0.5; the measurement must not grow
	// faster than that (an upper bound claim).
	slope, err := stats.LogLogSlope(xsN, ysMean)
	if err != nil {
		return nil, err
	}
	res.Claims = append(res.Claims, Claim{
		Name: "empirical growth exponent in n does not exceed the sqrt shape",
		OK:   slope < 0.55,
		Got:  fmt.Sprintf("measured n-exponent %.3f (bound shape ~0.45)", slope),
	})
	// Shape claim: the measured/bound ratio must not blow up with n —
	// allow a factor 4 drift across the sweep (constants are not the
	// paper's claim; growth order is).
	minR, maxR := ratios[0], ratios[0]
	for _, r := range ratios {
		if r < minR {
			minR = r
		}
		if r > maxR {
			maxR = r
		}
	}
	res.Claims = append(res.Claims, Claim{
		Name: "rounds/bound ratio bounded across n sweep",
		OK:   maxR <= 4*minR && minR > 0,
		Got:  fmt.Sprintf("ratio range [%.2f, %.2f]", minR, maxR),
	})
	tb.Note = "bound is the Theorem 3 shape (no constants); ratio stability is the claim"
	return res, nil
}

// E4ScaleT reproduces the Theorem 3 shape in t at fixed n: expected
// rounds grow with t as t / sqrt(n·log(2 + t/sqrt n)), with the O(1)
// plateau for t = O(sqrt n).
func E4ScaleT(cfg Config) (*Result, error) {
	n := 256
	if cfg.Quick {
		n = 128
	}
	reps := trialCount(cfg, 8, 30)
	ts := []int{0, isqrt(n), n / 8, n / 4, n / 2, 3 * n / 4, n - 1}
	tb := stats.NewTable(fmt.Sprintf("E4: SynRan rounds vs t at n = %d (Theorem 3)", n),
		"t", "mean rounds", "p90", "bound", "ratio")
	res := &Result{ID: "E4", Table: tb}

	var small, large float64
	for _, t := range ts {
		ss, err := runSafe(cfg, fmt.Sprintf("E4-t%d", t), reps, cfg.Metrics,
			halfSpec(synran.ProtocolSynRan, synran.AdversarySplitVote, n, t, stride(cfg.Seed+uint64(t)*13)))
		if err != nil {
			return nil, err
		}
		sum := summarize(ss, halt)
		bound := core.UpperBoundRounds(n, t)
		ratio := 0.0
		if bound > 0 {
			ratio = sum.Mean / bound
		}
		tb.AddRow(t, sum.Mean, sum.P90, bound, ratio)
		if t == isqrt(n) {
			small = sum.Mean
		}
		if t == n-1 {
			large = sum.Mean
		}
	}
	res.Claims = append(res.Claims, Claim{
		Name: "rounds grow from the t=O(sqrt n) plateau to t=n-1",
		OK:   large > small,
		Got:  fmt.Sprintf("t=sqrt(n): %.2f rounds, t=n-1: %.2f rounds", small, large),
	})
	tb.Note = "t = O(sqrt n) is the Ben-Or regime (constant rounds); growth beyond it is Theorem 3"
	return res, nil
}
