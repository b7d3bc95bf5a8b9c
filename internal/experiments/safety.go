package experiments

import (
	"fmt"

	"synran/internal/adversary"
	"synran/internal/core"
	"synran/internal/rng"
	"synran/internal/sim"
	"synran/internal/stats"
	"synran/internal/workload"
)

// E9Safety sweeps SynRan across (n, t, workload, adversary) and counts
// agreement/validity/termination failures — the paper's t-resilience
// conditions for all 0 <= t <= n. The expected count is zero; the same
// sweep with the symmetric coin is reported as contrast (its validity
// failures are the paper's motivation).
func E9Safety(cfg Config) (*Result, error) {
	ns := sizes(cfg, []int{1, 2, 5, 16, 33}, []int{1, 2, 3, 5, 9, 16, 33, 64, 100})
	seedsPer := trialCount(cfg, 3, 10)
	tb := stats.NewTable("E9: t-resilience sweep (Agreement / Validity / Termination)",
		"variant", "runs", "agreement fails", "validity fails", "termination fails")
	res := &Result{ID: "E9", Table: tb}

	// One trial is one (n, t, seed index, workload) execution against the
	// workload's rotating adversary pick. The random workload's coins come
	// from a split child keyed by the (n, t, seed index) triple's position
	// in the enumeration, so trials are independent of one another and of
	// the pool's scheduling.
	type triple struct{ n, t, s int }
	var triples []triple
	for _, n := range ns {
		for _, t := range []int{0, n / 2, n - 1, n} {
			for s := 0; s < seedsPer; s++ {
				triples = append(triples, triple{n, t, s})
			}
		}
	}
	const workloads = 4
	workloadRoot := rng.New(cfg.Seed ^ 0x9afe)
	type counts struct{ runs, agr, val, term int }
	sweep := func(key string, symmetric bool) (counts, error) {
		ss, err := runCell(cfg, key, len(triples)*workloads, nil, func(_, k int) (sample, error) {
			ci, wi := k/workloads, k%workloads
			n, t, s := triples[ci].n, triples[ci].t, triples[ci].s
			inputs := [workloads][]int{
				workload.Uniform(n, 0),
				workload.Uniform(n, 1),
				workload.HalfHalf(n),
				workload.Random(n, 0.5, workloadRoot.Split(uint64(ci))),
			}[wi]
			advs := []sim.Adversary{
				adversary.None{},
				&adversary.Random{PerRound: 0.8, MaxPerRound: 3},
				&adversary.SplitVote{},
				&adversary.MassCrash{AtRound: 2, Fraction: 0.7, PreferValue: 1},
				&adversary.PushTo{Value: 0},
				&adversary.PushTo{Value: 1},
			}
			res, err := core.Run(core.RunSpec{
				N: n, T: t, Inputs: inputs,
				Opts:      core.Options{SymmetricCoin: symmetric},
				Seed:      cfg.Seed + uint64(n*10000+t*100+s) + uint64(wi),
				Adversary: advs[(s+wi)%len(advs)],
			})
			return sampleOf(res, err, nil)
		})
		if err != nil {
			return counts{}, err
		}
		c := counts{runs: len(ss)}
		for _, s := range ss {
			if s.Partial {
				c.term++
				continue
			}
			if !s.Agreement {
				c.agr++
			}
			if !s.Validity {
				c.val++
			}
		}
		return c, nil
	}

	paper, err := sweep("E9-paper", false)
	if err != nil {
		return nil, err
	}
	sym, err := sweep("E9-symmetric", true)
	if err != nil {
		return nil, err
	}
	tb.AddRow("synran (paper)", paper.runs, paper.agr, paper.val, paper.term)
	tb.AddRow("symmetric-coin ablation", sym.runs, sym.agr, sym.val, sym.term)
	res.Claims = append(res.Claims,
		Claim{
			Name: "SynRan: zero failures across the sweep",
			OK:   paper.agr == 0 && paper.val == 0 && paper.term == 0,
			Got:  fmt.Sprintf("agr=%d val=%d term=%d of %d runs", paper.agr, paper.val, paper.term, paper.runs),
		},
		Claim{
			Name: "symmetric ablation: failures observed (motivating the bias)",
			OK:   sym.val+sym.agr+sym.term > 0,
			Got:  fmt.Sprintf("agr=%d val=%d term=%d of %d runs", sym.agr, sym.val, sym.term, sym.runs),
		})
	tb.Note = "termination fails = runs exceeding the engine round cap"
	return res, nil
}
