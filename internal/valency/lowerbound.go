package valency

import (
	"encoding/binary"
	"math/bits"

	"synran/internal/core"
	"synran/internal/sim"
	"synran/internal/wire"
)

// LowerBound is the paper's Section 3 adversary, executable form: at
// every round it enumerates candidate crash plans within the class-B
// per-round budget of 4·sqrt(n·log n)+1, looks ahead by cloning the
// execution and classifying each candidate's successor state, and picks
// a plan that keeps the execution bivalent or null-valent (Lemmas
// 3.1–3.4). When every candidate leads to a univalent state it follows
// the minimizing strategy: the plan whose successor has the least
// extreme decision probability, matching Section 3.5's "entering a
// univalent state" behaviour.
//
// The candidate set is a practical stand-in for the paper's
// message-by-message search: no crashes; trims of 1, half-budget and
// full-budget many senders of each value (hidden from everyone); and a
// half-delivered single crash of each value (the view split of Section
// 3.4 case 3). This is the substitution documented in DESIGN.md.
type LowerBound struct {
	// Est classifies candidate successor states; required.
	Est *Estimator
	// PerRound caps crashes per round; 0 means core.RoundBudget(n).
	PerRound int

	// arena recycles the candidate-evaluation snapshots (one live at a
	// time; candidates are scored sequentially).
	arena sim.SnapshotArena
	// Stats, exported for experiments.
	RoundsPlanned int
	KeptUndecided int
}

var _ sim.Adversary = (*LowerBound)(nil)

// NewLowerBound builds the adversary for an n-process system.
func NewLowerBound(n int, seed uint64) *LowerBound {
	return &LowerBound{
		Est:      NewEstimator(n, seed),
		PerRound: core.RoundBudget(n),
	}
}

// Name implements sim.Adversary.
func (a *LowerBound) Name() string { return "valency-lowerbound" }

// Clone implements sim.Adversary. The Estimator is deep-copied: a
// shared one would interleave rollout-counter draws between original
// and clone, making the clone's plans depend on how far the original
// has run (see Estimator.Clone).
func (a *LowerBound) Clone() sim.Adversary {
	c := *a
	if a.Est != nil {
		c.Est = a.Est.Clone()
	}
	c.arena = sim.SnapshotArena{} // fleets are per-adversary, never shared
	return &c
}

// Plan implements sim.Adversary.
func (a *LowerBound) Plan(v *sim.View) []sim.CrashPlan {
	a.RoundsPlanned++
	perRound := a.PerRound
	if perRound <= 0 {
		perRound = core.RoundBudget(v.N)
	}
	if perRound > v.Budget {
		perRound = v.Budget
	}
	candidates := a.candidates(v, perRound)
	bestPlans := candidates[0]
	bestScore := 3.0
	for _, cand := range candidates {
		est, ok := a.evaluate(v, cand)
		if !ok {
			continue
		}
		score := candScore(est)
		if score < bestScore {
			bestScore = score
			bestPlans = cand
		}
		if score == 0 {
			break // already found a bivalent/null-valent continuation
		}
	}
	if bestScore < 1 {
		a.KeptUndecided++
	}
	return bestPlans
}

// candScore maps a successor classification to a preference: keep
// non-univalent states (score 0); among univalent continuations — the
// Section 3.5 regime, where the adversary keeps implementing the
// delaying strategy — prefer the one whose rollouts run longest.
func candScore(est *Estimate) float64 {
	switch est.Class {
	case Bivalent, NullValent:
		return 0
	case OneValent, ZeroValent:
		return 1 + 1/(1+est.MeanExtraRounds)
	default:
		return 3
	}
}

// evaluate classifies the state reached by applying cand to the open
// round of an arena snapshot of the current execution.
func (a *LowerBound) evaluate(v *sim.View, cand []sim.CrashPlan) (*Estimate, bool) {
	c := a.arena.Snapshot(v.Exec)
	defer a.arena.Release(c)
	if err := c.FinishRound(cand); err != nil {
		return nil, false
	}
	est, err := a.Est.Classify(c, v.Round)
	if err != nil {
		return nil, false
	}
	return est, true
}

// candidates builds the plan set for this round.
func (a *LowerBound) candidates(v *sim.View, perRound int) [][]sim.CrashPlan {
	cands := [][]sim.CrashPlan{nil} // doing nothing is always an option
	if perRound == 0 {
		return cands
	}
	ones, zeros := senderIDsByValue(v)
	alive := v.AliveCount()
	for _, senders := range [][]int{ones, zeros} {
		if len(senders) == 0 {
			continue
		}
		// The v.N/10+1 size is the cheapest plan that breaks SynRan-style
		// stop tests (diff > N^{r-2}/10); the others bracket the budget.
		for _, k := range []int{1, alive/10 + 1, perRound / 2, perRound} {
			if k <= 0 || k > len(senders) || k > perRound {
				continue
			}
			plan := make([]sim.CrashPlan, k)
			for i := 0; i < k; i++ {
				plan[i] = sim.CrashPlan{Victim: senders[i]}
			}
			cands = append(cands, plan)
		}
		// View split (Section 3.4 case 3): one victim whose final message
		// only half the receivers hear.
		half := sim.NewBitSet(v.N)
		for wi, cnt := 0, 0; wi < v.Words() && cnt < alive/2; wi++ {
			for w := v.AliveWord(wi); w != 0 && cnt < alive/2; w &= w - 1 {
				half.Set(wi<<6 | bits.TrailingZeros64(w))
				cnt++
			}
		}
		cands = append(cands, []sim.CrashPlan{{Victim: senders[0], Deliver: half}})
	}
	return dedupeCandidates(cands)
}

// dedupeCandidates removes duplicate plans (same victims, both silent).
func dedupeCandidates(cands [][]sim.CrashPlan) [][]sim.CrashPlan {
	seen := make(map[string]bool, len(cands))
	var out [][]sim.CrashPlan
	for _, c := range cands {
		key := planKey(c)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, c)
	}
	return out
}

// planKey encodes a plan's victims (full ids, varint-coded) and whether
// each delivers to a subset.
func planKey(plans []sim.CrashPlan) string {
	b := make([]byte, 0, len(plans)*4)
	for _, p := range plans {
		b = binary.AppendUvarint(b, uint64(p.Victim))
		if p.Deliver != nil {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return string(b)
}

// senderIDsByValue partitions the round's plain-payload senders.
func senderIDsByValue(v *sim.View) (ones, zeros []int) {
	for k := 0; k < v.Words(); k++ {
		for w := v.SendingWord(k); w != 0; w &= w - 1 {
			i := k<<6 | bits.TrailingZeros64(w)
			if p := v.Payload(i); wire.IsFlood(p) {
				continue
			} else if wire.Bit(p) == 1 {
				ones = append(ones, i)
			} else {
				zeros = append(zeros, i)
			}
		}
	}
	return ones, zeros
}
