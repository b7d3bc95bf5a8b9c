package experiments

import (
	"fmt"

	"synran"
	"synran/internal/core"
	"synran/internal/sim"
	"synran/internal/stats"
	"synran/internal/trials"
	"synran/internal/workload"
)

// E17ScaleSoA reproduces the paper's bound shapes at the system sizes
// the title is actually about — n = 10^5 to 10^6 fail-stop processes —
// which only the columnar SoA engine core can execute (the object
// engine's per-receiver inboxes alone would need ~n² memory per round).
// Each trial runs SynRan at t = n−1 under the SplitVote adversary on
// Engine "soa" and measures halt rounds; the claims pin the two shapes
// of Theorems 1 and 3: the measurement sits above the lower-bound floor
// t/(4·sqrt(n·log n)+1) and within a constant factor of the upper-bound
// shape t/sqrt(n·log(2 + t/sqrt n)).
//
// Trials fan out over the shared worker pool; trial i draws its seed
// from (Seed, i) alone, so the table is byte-identical at every worker
// count (TestE17WorkerInvariance pins this, and the quick-suite golden
// file pins the rendered bytes).
func E17ScaleSoA(cfg Config) (*Result, error) {
	ns := sizes(cfg, []int{100000}, []int{100000, 1000000})
	reps := trialCount(cfg, 2, 3)
	tb := stats.NewTable("E17: SoA engine at paper scale, n = 1e5..1e6, t = n-1 (Thm 1/3 shapes)",
		"n", "t", "mean rounds", "max", "crashes", "lower bound", "upper shape", "ratio")
	res := &Result{ID: "E17", Table: tb}

	var ratios []float64
	for _, n := range ns {
		t := n - 1
		ss, err := runSafe(cfg, fmt.Sprintf("E17-n%d", n), reps, cfg.Metrics, func(i int) (synran.Spec, error) {
			return synran.Spec{N: n, T: t, Inputs: workload.HalfHalf(n), Protocol: synran.ProtocolSynRan,
				Adversary: synran.AdversarySplitVote, Seed: trials.Seed(cfg.Seed+uint64(n), i), Engine: sim.EngineSoA}, nil
		})
		if err != nil {
			return nil, err
		}
		rs, cs := summarize(ss, halt), summarize(ss, crashes)
		lower := core.LowerBoundRounds(n, t)
		upper := core.UpperBoundRounds(n, t)
		ratio := rs.Mean / upper
		tb.AddRow(n, t, rs.Mean, rs.Max, cs.Mean, lower, upper, ratio)
		ratios = append(ratios, ratio)

		res.Claims = append(res.Claims, Claim{
			Name: fmt.Sprintf("n=%d: measured rounds at or above the Theorem 1 floor", n),
			OK:   rs.Mean >= lower,
			Got:  fmt.Sprintf("mean %.1f rounds vs floor %.1f", rs.Mean, lower),
		})
	}
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
		Name: "rounds/upper-shape ratio bounded across the scale sweep",
		OK:   minR > 0.1 && maxR < 5,
		Got:  fmt.Sprintf("ratio range [%.2f, %.2f]", minR, maxR),
	})
	tb.Note = "runs on the columnar soa engine; both engine cores are byte-identical (conformance lane e)"
	return res, nil
}
