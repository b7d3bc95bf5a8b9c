package valency

import (
	"math/bits"

	"synran/internal/core"
	"synran/internal/sim"
	"synran/internal/wire"
)

// Stepwise is the faithful Section 3.4 rendition of the lower-bound
// adversary: instead of scoring a fixed candidate set (LowerBound), it
// follows the paper's step-by-step procedure within each round.
//
//	"First, the adversary allows all processes to flip coins. Then we
//	check the resulting execution if all the messages in round k would
//	have been sent. If by sending all messages the execution becomes
//	bivalent or null-valent we pass all the messages and continue...
//	Otherwise ... the adversary will implement this strategy step by
//	step and inspect the state of the execution after each step."
//
// Concretely: if full delivery keeps the state non-univalent, do
// nothing. Otherwise walk the senders whose value feeds the current
// valence, failing one at a time (messages hidden) and classifying after
// each step; stop as soon as the state becomes bivalent or null-valent
// (case 1), and when failing a victim would overshoot — flip the valence
// outright — attempt the half-delivery refinement of case 3 before
// accepting the flip. If the whole walk stays univalent, keep the
// longest minimizing prefix (Section 3.5's regime).
type Stepwise struct {
	// Est classifies the walk's successor states; required.
	Est *Estimator
	// PerRound caps crashes per round; 0 means core.RoundBudget(n).
	PerRound int

	// arena recycles the per-step look-ahead snapshots (one live at a
	// time; the walk classifies successor states sequentially).
	arena sim.SnapshotArena

	// StepsInspected counts classification calls (cost accounting).
	StepsInspected int

	// Reusable scratch. Returned plans share the walk's backing array and
	// are valid until the next Plan call; the engine copies delivery
	// masks into its own scratch, so that contract holds.
	victims []int
	walk    []sim.CrashPlan
	half    *sim.BitSet
}

var _ sim.Adversary = (*Stepwise)(nil)

// NewStepwise builds the Section 3.4 adversary for an n-process system.
func NewStepwise(n int, seed uint64) *Stepwise {
	return &Stepwise{
		Est:      NewEstimator(n, seed),
		PerRound: core.RoundBudget(n),
	}
}

// Name implements sim.Adversary.
func (a *Stepwise) Name() string { return "valency-stepwise" }

// Clone implements sim.Adversary. The Estimator is deep-copied so the
// clone's rollout-counter draws stay independent of the original's (see
// Estimator.Clone).
func (a *Stepwise) Clone() sim.Adversary {
	c := *a
	if a.Est != nil {
		c.Est = a.Est.Clone()
	}
	c.arena = sim.SnapshotArena{} // fleets are per-adversary, never shared
	c.victims, c.walk, c.half = nil, nil, nil
	return &c
}

// Plan implements sim.Adversary.
func (a *Stepwise) Plan(v *sim.View) []sim.CrashPlan {
	perRound := roundCap(a.PerRound, v)
	if perRound <= 0 {
		return nil
	}

	// Step 0: full delivery.
	base, ok := a.classify(v, nil)
	if !ok || !base.Class.Univalent() {
		return nil // bivalent or null-valent: pass all messages
	}

	// The execution is univalent; walk the senders carrying the valence's
	// value (failing 1-senders minimizes Pr[1] from a 1-valent state).
	target := 0
	if base.Class == ZeroValent {
		target = 1
	}
	a.victims = appendSendersWithBit(a.victims[:0], v, 1-target)
	a.victims = appendSendersWithBit(a.victims, v, target) // fall back to the rest

	// The walk accumulates the accepted prefix in the scratch slice;
	// trial and refined plans extend it in place (append-to-prefix), so
	// the whole walk allocates nothing once the backing array is warm.
	plan := a.walk[:0]
	current := base
	for _, victim := range a.victims {
		if len(plan) >= perRound {
			break
		}
		trial := append(plan, sim.CrashPlan{Victim: victim})
		est, ok := a.classify(v, trial)
		if !ok {
			continue
		}
		switch {
		case !est.Class.Univalent():
			// Case 1: stop failing the rest, stay in this state.
			a.walk = trial
			return trial
		case est.Class != current.Class:
			// Case 2/3: failing this victim flips the valence. Try the
			// half-delivery refinement before accepting the flip.
			refined := append(plan, sim.CrashPlan{Victim: victim, Deliver: a.halfMask(v)})
			if est2, ok2 := a.classify(v, refined); ok2 && !est2.Class.Univalent() {
				a.walk = refined
				return refined
			}
			// The paper's case 2: "we shall not fail this process and
			// send all its messages" — keep the prefix without it.
			a.walk = plan
			return plan
		default:
			// Still the same valence: keep implementing the strategy.
			plan = trial
			current = est
		}
	}
	a.walk = plan
	return plan
}

// classify classifies the state plan leads to, counting the step.
func (a *Stepwise) classify(v *sim.View, plan []sim.CrashPlan) (*Estimate, bool) {
	a.StepsInspected++
	return a.Est.successor(&a.arena, v, plan)
}

// appendSendersWithBit appends this round's plain senders carrying the
// bit to dst.
func appendSendersWithBit(dst []int, v *sim.View, bit int) []int {
	for k := 0; k < v.Words(); k++ {
		for w := v.SendingWord(k); w != 0; w &= w - 1 {
			i := k<<6 | bits.TrailingZeros64(w)
			if p := v.Payload(i); !wire.IsFlood(p) && wire.Bit(p) == bit {
				dst = append(dst, i)
			}
		}
	}
	return dst
}

// halfMask covers the lower-id half of the live processes; the scratch
// mask is only read before the next Plan call (the engine copies it).
func (a *Stepwise) halfMask(v *sim.View) *sim.BitSet {
	if a.half == nil {
		a.half = sim.NewBitSet(v.N)
	} else {
		a.half.Reset(v.N)
	}
	mask := a.half
	cnt, want := 0, v.AliveCount()/2
	for k := 0; k < v.Words() && cnt < want; k++ {
		for w := v.AliveWord(k); w != 0 && cnt < want; w &= w - 1 {
			mask.Set(k<<6 | bits.TrailingZeros64(w))
			cnt++
		}
	}
	return mask
}
