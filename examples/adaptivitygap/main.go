// Adaptivitygap: the paper's Section 1.2 observation, live — its lower
// bound "does not hold without the adaptive selection of the faulty
// processes". The same protocol faces two adversaries with the same
// crash budget: one commits its whole schedule before the run (it cannot
// react to the coins), one adapts round by round.
//
// The printed metric is the settle round: the last round in which the
// live processes' proposals were still split, plus one — i.e. how long
// the adversary kept the OUTCOME in doubt. (Halting lags behind settling
// under crash storms because SynRan's stop rule deliberately waits them
// out; see EXPERIMENTS.md E11.)
package main

import (
	"fmt"
	"math/bits"
	"os"

	"synran"
	"synran/internal/sim"
	"synran/internal/wire"
)

// settleObserver records the last round with split proposals.
type settleObserver struct {
	lastSplit int
}

func (s *settleObserver) OnRound(r int, v *sim.View) {
	ones, zeros := 0, 0
	// Visit this round's senders word by word (see sim.View.Words).
	for k := 0; k < v.Words(); k++ {
		for w := v.SendingWord(k); w != 0; w &= w - 1 {
			p := v.Payload(k<<6 | bits.TrailingZeros64(w))
			if wire.IsFlood(p) {
				if wire.Mask(p) == wire.MaskBoth {
					ones++
					zeros++
				} else if wire.Mask(p) == wire.MaskOne {
					ones++
				} else {
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

func (s *settleObserver) OnCrash(int, int, int)  {}
func (s *settleObserver) OnDecide(int, int, int) {}
func (s *settleObserver) OnHalt(int, int)        {}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "adaptivitygap:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("SynRan, t = n-1: rounds until the outcome settled (mean over 10 seeds)")
	fmt.Printf("%6s  %22s  %22s\n", "n", "non-adaptive (waves)", "adaptive (splitvote)")
	for _, n := range []int{32, 64, 128, 256} {
		var wavesSum, splitSum int
		const seeds = 10
		for seed := uint64(1); seed <= seeds; seed++ {
			for _, adv := range []string{synran.AdversaryWaves, synran.AdversarySplitVote} {
				obs := &settleObserver{}
				res, err := synran.Run(synran.Spec{
					N: n, T: n - 1,
					Inputs:    synran.HalfHalfInputs(n),
					Adversary: adv,
					Seed:      seed,
					Observer:  obs,
				})
				if err != nil {
					return err
				}
				if !res.Agreement || !res.Validity {
					return fmt.Errorf("safety violated at n=%d", n)
				}
				if adv == synran.AdversaryWaves {
					wavesSum += obs.lastSplit + 1
				} else {
					splitSum += obs.lastSplit + 1
				}
			}
		}
		fmt.Printf("%6d  %22.1f  %22.1f\n", n,
			float64(wavesSum)/seeds, float64(splitSum)/seeds)
	}
	fmt.Println("\nthe adaptive adversary keeps the outcome in doubt for a duration growing")
	fmt.Println("with n; the committed schedule cannot react to the coins and settles in O(1).")
	return nil
}
