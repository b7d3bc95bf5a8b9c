package valency

import (
	"math/bits"
	"slices"

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
	// Reusable scratch (never shared between clones). Candidates share
	// these arrays and are valid until the next Plan call; the engine
	// copies delivery masks into its own scratch, so that contract
	// holds. prefix[0] and prefix[1] hold the silent-crash plans of the
	// ones and zeros senders in sender order, each trim candidate a
	// prefix of them; both values' view-split plans share one mask.
	ones, zeros []int
	prefix      [2][]sim.CrashPlan
	split       [2]sim.CrashPlan
	half        *sim.BitSet
	cands       [][]sim.CrashPlan
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
	c.ones, c.zeros, c.prefix, c.half, c.cands = nil, nil, [2][]sim.CrashPlan{}, nil, nil
	return &c
}

// Plan implements sim.Adversary.
func (a *LowerBound) Plan(v *sim.View) []sim.CrashPlan {
	a.RoundsPlanned++
	candidates := a.candidates(v, roundCap(a.PerRound, v))
	bestPlans := candidates[0]
	bestScore := 3.0
	for _, cand := range candidates {
		est, ok := a.Est.successor(&a.arena, v, cand)
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

// roundCap is the number of crashes a look-ahead adversary may plan this
// round: perRound, where 0 means core.RoundBudget(n), capped by the
// remaining budget.
func roundCap(perRound int, v *sim.View) int {
	if perRound <= 0 {
		perRound = core.RoundBudget(v.N)
	}
	return min(perRound, v.Budget)
}

// candidates builds the plan set for this round, in a fixed order: no
// crash, then per value (ones, then zeros) its trims of 1, alive/10+1,
// perRound/2 and perRound senders, each size once, and its view split.
// The ones and zeros senders are disjoint and the split plan is the
// only one with a delivery mask, so skipping a repeated size is the
// whole dedupe.
func (a *LowerBound) candidates(v *sim.View, perRound int) [][]sim.CrashPlan {
	a.cands = append(a.cands[:0], nil) // doing nothing is always an option
	if perRound == 0 {
		return a.cands
	}
	a.ones, a.zeros = senderIDsByValue(v, a.ones[:0], a.zeros[:0])
	alive := v.AliveCount()
	if len(a.ones)+len(a.zeros) > 0 {
		// View split (Section 3.4 case 3): one victim whose final message
		// only the first half of the alive receivers hear.
		if a.half == nil {
			a.half = sim.NewBitSet(v.N)
		} else {
			a.half.Reset(v.N)
		}
		for wi, cnt := 0, 0; wi < v.Words() && cnt < alive/2; wi++ {
			for w := v.AliveWord(wi); w != 0 && cnt < alive/2; w &= w - 1 {
				a.half.Set(wi<<6 | bits.TrailingZeros64(w))
				cnt++
			}
		}
	}
	for vi, senders := range [2][]int{a.ones, a.zeros} {
		if len(senders) == 0 {
			continue
		}
		// The v.N/10+1 size is the cheapest plan that breaks SynRan-style
		// stop tests (diff > N^{r-2}/10); the others bracket the budget.
		sizes := [...]int{1, alive/10 + 1, perRound / 2, perRound}
		prefix := a.prefix[vi][:0]
		for si, k := range sizes {
			if k <= 0 || k > len(senders) || k > perRound || slices.Contains(sizes[:si], k) {
				continue
			}
			for len(prefix) < k {
				prefix = append(prefix, sim.CrashPlan{Victim: senders[len(prefix)]})
			}
			a.cands = append(a.cands, prefix[:k:k])
		}
		a.prefix[vi] = prefix
		a.split[vi] = sim.CrashPlan{Victim: senders[0], Deliver: a.half}
		a.cands = append(a.cands, a.split[vi:vi+1:vi+1])
	}
	return a.cands
}

// senderIDsByValue partitions the round's plain-payload senders,
// appending them to ones and zeros.
func senderIDsByValue(v *sim.View, ones, zeros []int) ([]int, []int) {
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
