package adversary

import (
	"math/bits"

	"synran/internal/sim"
	"synran/internal/wire"
)

// SplitVote is the adaptive full-information attack on SynRan-style
// threshold voting protocols whose cost Theorem 2 of the paper analyzes.
// Its goal each round is to keep every receiver's observed one-count
// inside the coin-flip band [5/10·N', 6/10·N'] — so no process crosses a
// propose or decide threshold — using three levers, all paid for with
// crashes:
//
//  1. Trim: when the ones overshoot the band, crash the excess 1-senders
//     with their message hidden from everyone.
//  2. Split: spend one extra 1-sender whose final message is shown only
//     to a chosen fraction of receivers, pushing that group just over
//     the 6/10 propose-1 threshold; the groups' next-round proposals are
//     then centred above the coin-flip mean, which is what keeps the
//     process alive (this is the view-splitting the paper's adversary
//     performs message by message in Section 3.4).
//  3. Rescue: when the zeros are about to sweep (ones below 5/10·N'),
//     crash every 0-sender, delivering their final messages only to the
//     lower half of the receivers. The hidden half then sees Z = 0 and
//     the one-side-bias rule forces it back to 1, re-splitting the vote.
//     This is the expensive move — the paper shows it costs about half
//     the survivors — so it is attempted only while budget remains.
//
// Levers 1 and 3 are exactly the two cases of the Lemma 4.6 argument
// ("the adversary will have to fail at least p/2 processes" / "fail at
// least p/10 processes"); the measured per-block crash cost is
// experiment E8.
//
// The implementation is allocation-free after warm-up: sender sets,
// plan slices, and delivery masks live in reusable scratch fields, each
// sized once from the first round's sender or victim count (no round
// has more senders than round 1), the
// per-receiver base update is computed columnar (totals minus per-mask
// group corrections, O(n·groups) instead of O(n²)), and all rescue
// victims share ONE delivery mask — the engine copies it per victim
// into its own scratch, and groups the victims by the shared pointer.
// Every per-process loop visits the View's sending or live words, so a
// flood-stage round with a few survivors of n costs O(n/64 + survivors).
type SplitVote struct {
	// SplitFraction is the fraction of receivers put into the propose-1
	// group by lever 2 (default 0.2, the value that centres the next
	// round's expected one-count mid-band).
	SplitFraction float64
	// DisableSplit turns lever 2 off (ablation).
	DisableSplit bool
	// DisableRescue turns lever 3 off (ablation).
	DisableRescue bool

	started   bool  // bases initialized for the current run
	floodSeen bool  // senderSets observed a flood payload this round
	senders   int   // this round's sender count, counted by senderSets
	bases     []int // per-receiver N from the previous round (self included)

	// Reusable scratch (never shared between clones). Plan slices and
	// masks returned from Plan are only valid until the next Plan call,
	// which the engine contract allows: FinishRound consumes them within
	// the round.
	oneSenders, zeroSenders []int
	plans                   []sim.CrashPlan
	baseCounts              []int
	victims                 *sim.BitSet
	splitMask               *sim.BitSet
	rescueMask              *sim.BitSet
	groupMasks              []*sim.BitSet
	groupCounts             []int
}

var _ sim.Adversary = (*SplitVote)(nil)
var _ sim.ReusableAdversary = (*SplitVote)(nil)

// Name implements sim.Adversary.
func (a *SplitVote) Name() string { return "splitvote" }

// Clone implements sim.Adversary.
func (a *SplitVote) Clone() sim.Adversary {
	c := &SplitVote{
		SplitFraction: a.SplitFraction,
		DisableSplit:  a.DisableSplit,
		DisableRescue: a.DisableRescue,
		started:       a.started,
		bases:         append([]int(nil), a.bases...),
	}
	return c
}

// ResetAdversary implements sim.ReusableAdversary: restore factory-fresh
// behavior (bases are refilled on the next Plan) while keeping scratch.
func (a *SplitVote) ResetAdversary() { a.started = false }

// Plan implements sim.Adversary.
func (a *SplitVote) Plan(v *sim.View) []sim.CrashPlan {
	if !a.started {
		if cap(a.bases) < v.N {
			a.bases = make([]int, v.N)
		} else {
			a.bases = a.bases[:v.N]
		}
		for i := range a.bases {
			a.bases[i] = v.N
		}
		a.started = true
	}
	plans := a.plan(v)
	a.updateBases(v, plans)
	return plans
}

// plan chooses this round's lever.
func (a *SplitVote) plan(v *sim.View) []sim.CrashPlan {
	a.senderSets(v)
	if a.floodSeen {
		// The deterministic stage has begun; FloodSet cannot be stopped
		// by crashes (fewer than its round count can occur), so save the
		// remaining budget.
		return nil
	}
	ones, zeros := len(a.oneSenders), len(a.zeroSenders)
	if ones+zeros == 0 || v.Budget == 0 {
		return nil
	}
	base := a.commonBase(v)
	if base <= 0 {
		return nil
	}
	hi := 6 * base / 10 // top of the coin-flip band (floor)

	switch {
	case 10*ones > 6*base:
		return a.trimAndSplit(v, a.oneSenders, ones, hi)
	case 10*ones < 5*base && zeros > 0 && !a.DisableRescue:
		// Below the band: every receiver would propose 0 (or decide 0 if
		// below 4/10). Rescue by hiding all zeros from half the receivers.
		if zeros <= v.Budget {
			return a.rescue(v, a.zeroSenders)
		}
		return nil
	default:
		return nil
	}
}

// trimAndSplit implements levers 1 and 2: crash ones−hi 1-senders; the
// last of them is delivered to a receiver subset when splitting is on.
func (a *SplitVote) trimAndSplit(v *sim.View, oneSenders []int, ones, hi int) []sim.CrashPlan {
	excess := ones - hi
	if excess > v.Budget {
		excess = v.Budget
	}
	if excess <= 0 {
		return nil
	}
	plans := a.planBuf(excess)
	for k := 0; k < excess; k++ {
		victim := oneSenders[k]
		plan := sim.CrashPlan{Victim: victim}
		if k == excess-1 && !a.DisableSplit && ones-excess == hi {
			// Lever 2: show this last 1 to a group that then sees
			// hi+1 > 6/10·base ones and proposes 1 deterministically.
			plan.Deliver = a.splitGroup(v)
		}
		plans = append(plans, plan)
	}
	a.plans = plans
	return plans
}

// planBuf returns the empty plan scratch with room for victims plans.
func (a *SplitVote) planBuf(victims int) []sim.CrashPlan {
	if cap(a.plans) < victims {
		a.plans = make([]sim.CrashPlan, 0, victims)
	}
	return a.plans[:0]
}

// splitGroup selects the receivers that get the extra 1-message.
func (a *SplitVote) splitGroup(v *sim.View) *sim.BitSet {
	frac := a.SplitFraction
	if frac <= 0 || frac >= 1 {
		frac = 0.2
	}
	alive := v.AliveCount()
	want := int(frac * float64(alive))
	if a.splitMask == nil {
		a.splitMask = sim.NewBitSet(v.N)
	} else {
		a.splitMask.Reset(v.N)
	}
	mask := a.splitMask
	for k, got := 0, 0; k < v.Words() && got < want; k++ {
		for w := v.AliveWord(k); w != 0 && got < want; w &= w - 1 {
			mask.Set(k<<6 | bits.TrailingZeros64(w))
			got++
		}
	}
	return mask
}

// rescue implements lever 3: crash every 0-sender, delivering their
// final messages only to half of the SURVIVORS (the processes that are
// not being crashed). The other surviving half then sees no zero at all,
// and the one-side-bias rule flips it to 1 while the seen half proposes
// 0 — the vote is split again. Splitting the survivors, not the whole
// population, matters: the zero-senders themselves are dying, so
// blinding them would waste the lever. Every victim's plan shares the
// one scratch mask: the engine groups same-pointer plans into a single
// columnar sweep, which is what makes a mass rescue at n = 10^6 an
// O(n) round instead of O(n²).
func (a *SplitVote) rescue(v *sim.View, zeroSenders []int) []sim.CrashPlan {
	if a.victims == nil {
		a.victims = sim.NewBitSet(v.N)
	} else {
		a.victims.Reset(v.N)
	}
	for _, z := range zeroSenders {
		a.victims.Set(z)
	}
	survivors := 0
	for k := 0; k < v.Words(); k++ {
		survivors += bits.OnesCount64(v.LiveWord(k) &^ a.victims.Word(k))
	}
	if a.rescueMask == nil {
		a.rescueMask = sim.NewBitSet(v.N)
	} else {
		a.rescueMask.Reset(v.N)
	}
	seen := a.rescueMask
	for k, got := 0, 0; k < v.Words() && got < survivors/2; k++ {
		for w := v.LiveWord(k) &^ a.victims.Word(k); w != 0 && got < survivors/2; w &= w - 1 {
			seen.Set(k<<6 | bits.TrailingZeros64(w))
			got++
		}
	}
	plans := a.planBuf(len(zeroSenders))
	for _, z := range zeroSenders {
		plans = append(plans, sim.CrashPlan{Victim: z, Deliver: seen})
	}
	a.plans = plans
	return plans
}

// commonBase returns the most common previous-round receive count among
// live receivers — the threshold base N^{r-1} the bulk of the population
// is using this round. Bases lie in [0, N] (1 + at most N−1 senders), so
// a count slice replaces the map; ties resolve to the first-reached
// maximum exactly as the ascending-i strictly-greater update always did.
func (a *SplitVote) commonBase(v *sim.View) int {
	if cap(a.baseCounts) < v.N+1 {
		a.baseCounts = make([]int, v.N+1)
	} else {
		a.baseCounts = a.baseCounts[:v.N+1]
	}
	counts := a.baseCounts
	bestBase, bestCount := 0, 0
	for k := 0; k < v.Words(); k++ {
		for w := v.LiveWord(k); w != 0; w &= w - 1 {
			b := a.bases[k<<6|bits.TrailingZeros64(w)]
			counts[b]++
			if counts[b] > bestCount {
				bestBase, bestCount = b, counts[b]
			}
		}
	}
	// Zero only the touched entries so a sparse population stays O(live).
	for k := 0; k < v.Words(); k++ {
		for w := v.LiveWord(k); w != 0; w &= w - 1 {
			counts[a.bases[k<<6|bits.TrailingZeros64(w)]] = 0
		}
	}
	return bestBase
}

// updateBases recomputes each live receiver's N for the round that was
// just planned, replaying the delivery outcome of the chosen plans so
// next round's threshold bases are tracked exactly (the engine counts a
// receiver's own value, hence the +1).
//
// Columnar form of the per-receiver replay: every receiver starts from
// the full sender count, minus itself, minus the fully-hidden victims;
// victims with delivery masks are grouped by mask pointer and each group
// subtracts its size from exactly the receivers outside its mask. The
// result is identical to the old O(n²) double loop — a victim's own row
// gets its self-exclusion terms added back at the end — at O(n·groups).
func (a *SplitVote) updateBases(v *sim.View, plans []sim.CrashPlan) {
	senders := a.senders
	hidden := 0
	gm, gc := a.groupMasks[:0], a.groupCounts[:0]
	for _, p := range plans {
		if !v.IsSending(p.Victim) {
			continue // a silent victim changes no receiver's count
		}
		if p.Deliver == nil {
			hidden++
			continue
		}
		found := false
		for g := range gm {
			if gm[g] == p.Deliver {
				gc[g]++
				found = true
				break
			}
		}
		if !found {
			gm = append(gm, p.Deliver)
			gc = append(gc, 1)
		}
	}
	a.groupMasks, a.groupCounts = gm, gc
	for k := 0; k < v.Words(); k++ {
		sw := v.SendingWord(k)
		for w := v.LiveWord(k); w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			j := k<<6 | b
			n := 1 + senders - hidden
			if sw&(1<<uint(b)) != 0 {
				n-- // no self-delivery
			}
			for g := range gm {
				if !gm[g].Get(j) {
					n -= gc[g]
				}
			}
			a.bases[j] = n
		}
	}
	// A sending victim's own row wrongly subtracted its own plan (the
	// replay excludes i == j): add the term back.
	for _, p := range plans {
		jv := p.Victim
		if !v.IsSending(jv) || !v.IsAlive(jv) || v.IsHalted(jv) {
			continue
		}
		if p.Deliver == nil || !p.Deliver.Get(jv) {
			a.bases[jv]++
		}
	}
	a.groupMasks = a.groupMasks[:0] // do not retain adversary-owned masks
	a.groupCounts = a.groupCounts[:0]
}

// senderSets counts this round's senders and partitions them by
// broadcast value into the reusable scratch slices, each sized for every
// sender so that neither grows by append.
func (a *SplitVote) senderSets(v *sim.View) {
	a.senders = 0
	for k := 0; k < v.Words(); k++ {
		a.senders += bits.OnesCount64(v.SendingWord(k))
	}
	if cap(a.oneSenders) < a.senders {
		a.oneSenders = make([]int, 0, a.senders)
	}
	if cap(a.zeroSenders) < a.senders {
		a.zeroSenders = make([]int, 0, a.senders)
	}
	a.oneSenders = a.oneSenders[:0]
	a.zeroSenders = a.zeroSenders[:0]
	a.floodSeen = false
	for k := 0; k < v.Words(); k++ {
		for w := v.SendingWord(k); w != 0; w &= w - 1 {
			i := k<<6 | bits.TrailingZeros64(w)
			p := v.Payload(i)
			if wire.IsFlood(p) {
				a.floodSeen = true
				continue
			}
			if p&1 == 1 {
				a.oneSenders = append(a.oneSenders, i)
			} else {
				a.zeroSenders = append(a.zeroSenders, i)
			}
		}
	}
}
