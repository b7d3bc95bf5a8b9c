package experiments

import (
	"fmt"
	"math/bits"

	"synran"
	"synran/internal/sim"
	"synran/internal/stats"
	"synran/internal/wire"
	"synran/internal/workload"
)

// stabilizationObserver records the last round in which the live
// processes' proposals were not unanimous. The round after it is the
// de-facto decision round: the outcome can no longer change (only the
// stop handshake remains). It is the probe behind the settle columns of
// E11 and E13.
type stabilizationObserver struct {
	lastSplit int
}

func (s *stabilizationObserver) OnRound(r int, v *sim.View) {
	ones, zeros := 0, 0
	for k := 0; k < v.Words(); k++ {
		for w := v.SendingWord(k); w != 0; w &= w - 1 {
			p := v.Payload(k<<6 | bits.TrailingZeros64(w))
			if wire.IsFlood(p) {
				switch wire.Mask(p) {
				case wire.MaskOne:
					ones++
				case wire.MaskZero:
					zeros++
				default:
					ones++
					zeros++
				}
				continue
			}
			if wire.Bit(p) == 1 {
				ones++
			} else {
				zeros++
			}
		}
	}
	if ones > 0 && zeros > 0 {
		s.lastSplit = r
	}
}

func (s *stabilizationObserver) OnCrash(int, int, int)  {}
func (s *stabilizationObserver) OnDecide(int, int, int) {}
func (s *stabilizationObserver) OnHalt(int, int)        {}

func (s *stabilizationObserver) record(smp *sample) { smp.Settle = s.lastSplit + 1 }

// E11AdaptivityGap reproduces the paper's Section 1.2 remark that its
// lower bound "does not hold without the adaptive selection of the
// faulty processes" ([CMS89] achieves O(1) expected rounds against
// non-adaptive fail-stop adversaries). Four cells:
//
//   - SynRan vs a committed (non-adaptive) crash schedule: O(1) rounds
//     regardless of n and t — the coin-flip trap needs adaptivity.
//   - SynRan vs the adaptive split-vote adversary: rounds grow with n.
//   - The leader-coin variant ([CC85]/[CMS89]-flavoured shared coin) vs
//     the same non-adaptive schedule: O(1) rounds.
//   - The leader-coin variant vs the adaptive leader-killer: rounds grow
//     ~linearly with t at one crash per round — the classic coordinator
//     degradation.
//
// The measure is the settle round (see stabilizationObserver), which is
// what the adaptivity claim is about: SynRan's stop rule deliberately
// waits out crash storms, so a non-adaptive burst schedule can delay
// *halting* for its whole duration while the *outcome* is settled in
// O(1) rounds; only an adaptive adversary can keep the outcome itself in
// doubt.
func E11AdaptivityGap(cfg Config) (*Result, error) {
	ns := sizes(cfg, []int{32, 128}, []int{32, 128, 512})
	reps := trialCount(cfg, 8, 30)
	tb := stats.NewTable("E11: adaptive vs non-adaptive adversaries (Section 1.2)",
		"protocol", "adversary", "n", "t", "mean settle rounds", "mean halt rounds")
	res := &Result{ID: "E11", Table: tb}

	type cell struct{ proto, adv, label string }
	cells := []cell{
		{synran.ProtocolSynRan, synran.AdversaryWaves, "waves (non-adaptive)"},
		{synran.ProtocolSynRan, synran.AdversarySplitVote, "splitvote (adaptive)"},
		{synran.ProtocolLeaderCoin, synran.AdversaryWaves, "waves (non-adaptive)"},
		// Band control plus coordinator assassination: the split-vote
		// levers keep the counts in the adoption band while the leader's
		// broadcast is split every round.
		{synran.ProtocolLeaderCoin, synran.AdversaryLeaderKiller, "leaderkiller (adaptive)"},
	}

	means := make(map[string][]float64) // proto/adv -> means per n
	for _, n := range ns {
		t := n - 1
		inputs := workload.HalfHalf(n) // shared read-only by the cells' trials
		for _, c := range cells {
			ss, err := runSafe(cfg, fmt.Sprintf("E11-n%d-%s-%s", n, c.proto, c.adv), reps, nil, func(i int) (synran.Spec, error) {
				return synran.Spec{N: n, T: t, Inputs: inputs, Protocol: c.proto, Adversary: c.adv,
					Seed: cfg.Seed + uint64(n*100+i), Observer: &stabilizationObserver{}}, nil
			})
			if err != nil {
				return nil, err
			}
			st := summarize(ss, settle)
			tb.AddRow(c.proto, c.label, n, t, st.Mean, summarize(ss, halt).Mean)
			key := c.proto + "/" + c.label
			means[key] = append(means[key], st.Mean)
		}
	}

	growth := func(key string) float64 {
		m := means[key]
		return m[len(m)-1] / m[0]
	}
	avg := func(key string) float64 {
		m := means[key]
		s := 0.0
		for _, x := range m {
			s += x
		}
		return s / float64(len(m))
	}
	nGrowth := float64(ns[len(ns)-1]) / float64(ns[0])
	res.Claims = append(res.Claims,
		Claim{
			Name: "non-adaptive schedule: SynRan outcome settles in O(1)",
			OK:   growth("synran/waves (non-adaptive)") < 2,
			Got:  fmt.Sprintf("settle rounds grew %.2fx over a %.0fx n sweep", growth("synran/waves (non-adaptive)"), nGrowth),
		},
		Claim{
			Name: "non-adaptive schedule: leader-coin outcome settles in O(1)",
			OK:   growth("leadercoin/waves (non-adaptive)") < 2,
			Got:  fmt.Sprintf("settle rounds grew %.2fx", growth("leadercoin/waves (non-adaptive)")),
		},
		Claim{
			Name: "adaptivity keeps SynRan's outcome in doubt longer",
			OK:   avg("synran/splitvote (adaptive)") > 1.5*avg("synran/waves (non-adaptive)"),
			Got: fmt.Sprintf("adaptive avg %.1f vs non-adaptive avg %.1f settle rounds",
				avg("synran/splitvote (adaptive)"), avg("synran/waves (non-adaptive)")),
		},
		Claim{
			Name: "adaptivity keeps the leader coin's outcome in doubt longer",
			OK:   avg("leadercoin/leaderkiller (adaptive)") > 1.5*avg("leadercoin/waves (non-adaptive)"),
			Got: fmt.Sprintf("adaptive avg %.1f vs non-adaptive avg %.1f settle rounds",
				avg("leadercoin/leaderkiller (adaptive)"), avg("leadercoin/waves (non-adaptive)")),
		})
	tb.Note = "settle = last round with split proposals + 1 (outcome fixed); halting may lag while the stop rule waits out crash storms"
	return res, nil
}
