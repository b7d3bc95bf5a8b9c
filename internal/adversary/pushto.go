package adversary

import (
	"math/bits"

	"synran/internal/sim"
	"synran/internal/wire"
)

// PushTo steers a threshold-voting protocol toward the given value by
// crashing, every round, up to PerRound senders of the opposite value
// (messages fully hidden). Against SynRan, pushing toward 1 exploits the
// one-side-bias rule (once no zeros are visible, everyone proposes 1);
// pushing toward 0 starves the one-count below the decide-0 threshold.
//
// The valency estimator uses PushTo{0} and PushTo{1} as the extreme
// members of its adversary pool: the empirical min and max probability
// of deciding 1 over the pool approximate the paper's min r(α) and
// max r(α).
type PushTo struct {
	// Value is the decision value to push toward (0 or 1).
	Value int
	// PerRound caps crashes per round (0 means the paper's class-B cap is
	// applied by the caller through the execution's total budget only).
	PerRound int

	// plans is reusable scratch; the returned slice is valid until the
	// next Plan call, which the engine contract allows.
	plans []sim.CrashPlan
}

var _ sim.Adversary = (*PushTo)(nil)
var _ sim.ReusableAdversary = (*PushTo)(nil)

// Name implements sim.Adversary.
func (a *PushTo) Name() string {
	if a.Value == 0 {
		return "push0"
	}
	return "push1"
}

// Clone implements sim.Adversary.
func (a *PushTo) Clone() sim.Adversary {
	c := *a
	c.plans = nil // scratch is never shared between clones
	return &c
}

// ResetAdversary implements sim.ReusableAdversary. PushTo keeps no
// cross-round state, so only the scratch capacity is retained.
func (a *PushTo) ResetAdversary() {}

// Plan implements sim.Adversary.
func (a *PushTo) Plan(v *sim.View) []sim.CrashPlan {
	limit := v.Budget
	if a.PerRound > 0 && a.PerRound < limit {
		limit = a.PerRound
	}
	if limit == 0 {
		return nil
	}
	opposite := 1 - a.Value
	plans := a.plans[:0]
	for k := 0; k < v.Words() && len(plans) < limit; k++ {
		for w := v.SendingWord(k); w != 0 && len(plans) < limit; w &= w - 1 {
			i := k<<6 | bits.TrailingZeros64(w)
			if p := v.Payload(i); !wire.IsFlood(p) && wire.Bit(p) == opposite {
				plans = append(plans, sim.CrashPlan{Victim: i})
			}
		}
	}
	a.plans = plans
	return plans
}
