// Package adversary provides fail-stop adversary strategies for the
// sim engine: from the trivial crash-free adversary through random and
// scheduled crash fuzzers up to the adaptive split-vote strategy whose
// per-round cost Theorem 2 of the paper analyzes. The valency-based
// lower-bound adversary of Section 3 lives in internal/valency (it needs
// execution look-ahead and would otherwise create an import cycle).
package adversary

import (
	"math/bits"

	"synran/internal/sim"
)

// None never crashes anyone.
type None struct{}

var _ sim.Adversary = None{}

// Name implements sim.Adversary.
func (None) Name() string { return "none" }

// Plan implements sim.Adversary.
func (None) Plan(*sim.View) []sim.CrashPlan { return nil }

// Clone implements sim.Adversary.
func (None) Clone() sim.Adversary { return None{} }

// Schedule replays a fixed per-round crash schedule. It is adaptive only
// in the trivial sense; it exists for tests and reproducible demos.
type Schedule struct {
	Plans map[int][]sim.CrashPlan
}

var _ sim.Adversary = (*Schedule)(nil)

// Name implements sim.Adversary.
func (s *Schedule) Name() string { return "schedule" }

// Plan implements sim.Adversary.
func (s *Schedule) Plan(v *sim.View) []sim.CrashPlan { return s.Plans[v.Round] }

// Clone implements sim.Adversary.
func (s *Schedule) Clone() sim.Adversary {
	c := &Schedule{Plans: make(map[int][]sim.CrashPlan, len(s.Plans))}
	for r, plans := range s.Plans {
		cp := make([]sim.CrashPlan, len(plans))
		for i, p := range plans {
			cp[i] = sim.CrashPlan{Victim: p.Victim}
			if p.Deliver != nil {
				cp[i].Deliver = p.Deliver.Clone()
			}
		}
		c.Plans[r] = cp
	}
	return c
}

// Random crashes each round, with probability PerRound, a uniformly
// random live process, delivering its final message to a uniformly
// random subset of receivers. It is the model's background-noise fuzzer.
type Random struct {
	// PerRound is the probability of attempting one crash in a round
	// (default 0.5 when zero).
	PerRound float64
	// MaxPerRound bounds crashes within one round (default 1 when zero).
	MaxPerRound int
}

var _ sim.Adversary = (*Random)(nil)

// Name implements sim.Adversary.
func (a *Random) Name() string { return "random" }

// Clone implements sim.Adversary.
func (a *Random) Clone() sim.Adversary {
	c := *a
	return &c
}

// Plan implements sim.Adversary.
func (a *Random) Plan(v *sim.View) []sim.CrashPlan {
	p := a.PerRound
	if p == 0 {
		p = 0.5
	}
	maxPer := a.MaxPerRound
	if maxPer == 0 {
		maxPer = 1
	}
	var plans []sim.CrashPlan
	for k := 0; k < maxPer && len(plans) < v.Budget; k++ {
		if v.Rng.Float64() >= p {
			continue
		}
		victim := pickRandomAlive(v, plans)
		if victim < 0 {
			break
		}
		mask := sim.NewBitSet(v.N)
		for j := 0; j < v.N; j++ {
			if v.Rng.Bool() {
				mask.Set(j)
			}
		}
		plans = append(plans, sim.CrashPlan{Victim: victim, Deliver: mask})
	}
	return plans
}

// MassCrash crashes Fraction of the currently alive processes in round
// AtRound, preferring senders of value PreferValue (use -1 for no
// preference), with no delivery. It demonstrates the validity violation
// of the symmetric-coin baseline (experiment E5): crashing >60% of
// 1-senders in one round drives everyone's observed one-count below the
// 4/10 threshold.
type MassCrash struct {
	AtRound     int
	Fraction    float64
	PreferValue int
}

var _ sim.Adversary = (*MassCrash)(nil)

// Name implements sim.Adversary.
func (a *MassCrash) Name() string { return "masscrash" }

// Clone implements sim.Adversary.
func (a *MassCrash) Clone() sim.Adversary {
	c := *a
	return &c
}

// Plan implements sim.Adversary.
func (a *MassCrash) Plan(v *sim.View) []sim.CrashPlan {
	if v.Round != a.AtRound {
		return nil
	}
	want := int(a.Fraction * float64(v.AliveCount()))
	if want > v.Budget {
		want = v.Budget
	}
	var plans []sim.CrashPlan
	// First pass: preferred-value senders; second pass: anyone alive.
	for pass := 0; pass < 2 && len(plans) < want; pass++ {
		for k := 0; k < v.Words() && len(plans) < want; k++ {
			w := v.AliveWord(k)
			if pass == 0 && a.PreferValue >= 0 {
				w &= v.SendingWord(k)
			}
			for ; w != 0 && len(plans) < want; w &= w - 1 {
				i := k<<6 | bits.TrailingZeros64(w)
				if planned(plans, i) {
					continue
				}
				if pass == 0 && a.PreferValue >= 0 && int(v.Payload(i)&1) != a.PreferValue {
					continue
				}
				plans = append(plans, sim.CrashPlan{Victim: i})
			}
		}
	}
	return plans
}

// pickRandomAlive returns a uniformly random live process not already in
// plans, or -1 if none remain.
func pickRandomAlive(v *sim.View, plans []sim.CrashPlan) int {
	var candidates []int
	for k := 0; k < v.Words(); k++ {
		for w := v.AliveWord(k); w != 0; w &= w - 1 {
			if i := k<<6 | bits.TrailingZeros64(w); !planned(plans, i) {
				candidates = append(candidates, i)
			}
		}
	}
	if len(candidates) == 0 {
		return -1
	}
	return candidates[v.Rng.Intn(len(candidates))]
}

// planned reports whether process i is already a victim in plans.
func planned(plans []sim.CrashPlan, i int) bool {
	for _, p := range plans {
		if p.Victim == i {
			return true
		}
	}
	return false
}
