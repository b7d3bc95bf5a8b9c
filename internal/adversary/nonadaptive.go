package adversary

import (
	"math/bits"

	"synran/internal/rng"
	"synran/internal/sim"
	"synran/internal/wire"
)

// Waves is a NON-adaptive adversary: its entire crash schedule (victims,
// rounds, delivery masks) is committed at construction time from a seed,
// before the execution starts, and Plan never inspects coins or
// payloads. This is the adversary class of Chor–Merritt–Shmoys [CMS89],
// against which O(1) expected-round consensus exists; the paper notes
// its lower bound "does not hold without the adaptive selection of the
// faulty processes", and experiment E11 measures exactly that gap.
//
// The schedule crashes Burst random victims every Gap rounds, each with
// an independently random delivery mask, until the budget T is planned.
type Waves struct {
	// N and T size the schedule; Burst (default max(1, T/8)) and Gap
	// (default 2) shape it; Seed commits it.
	N, T  int
	Burst int
	Gap   int
	Seed  uint64

	plans map[int][]sim.CrashPlan
}

var _ sim.Adversary = (*Waves)(nil)

// NewWaves builds the committed schedule.
func NewWaves(n, t int, seed uint64) *Waves {
	w := &Waves{N: n, T: t, Seed: seed}
	w.commit()
	return w
}

// commit generates the schedule. It runs once; Plan only replays it.
func (w *Waves) commit() {
	if w.plans != nil {
		return
	}
	w.plans = make(map[int][]sim.CrashPlan)
	burst := w.Burst
	if burst <= 0 {
		burst = w.T / 8
		if burst < 1 {
			burst = 1
		}
	}
	gap := w.Gap
	if gap <= 0 {
		gap = 2
	}
	r := rng.New(w.Seed ^ 0x4a5e5)
	perm := r.Perm(w.N) // victims in a committed random order
	vi := 0
	round := 1
	for vi < w.T && vi < w.N {
		k := burst
		if vi+k > w.T {
			k = w.T - vi
		}
		var plans []sim.CrashPlan
		for j := 0; j < k && vi < w.N; j++ {
			mask := sim.NewBitSet(w.N)
			for i := 0; i < w.N; i++ {
				if r.Bool() {
					mask.Set(i)
				}
			}
			plans = append(plans, sim.CrashPlan{Victim: perm[vi], Deliver: mask})
			vi++
		}
		w.plans[round] = plans
		round += gap
	}
}

// Name implements sim.Adversary.
func (w *Waves) Name() string { return "waves-nonadaptive" }

// Plan implements sim.Adversary. It reads only the round number.
func (w *Waves) Plan(v *sim.View) []sim.CrashPlan {
	return w.plans[v.Round]
}

// Clone implements sim.Adversary (the schedule is immutable, so the
// receiver can be shared).
func (w *Waves) Clone() sim.Adversary { return w }

// LeaderKiller is the adaptive attack on leader/coordinator-based
// protocols: every round it crashes the process the protocol will treat
// as the leader (the lowest-id live sender), delivering its final
// message to only half of the receivers so the views split. One crash
// per round buys one extra round — the classic reason coordinator
// protocols degrade to Θ(t) rounds against an adaptive adversary while
// remaining O(1) against non-adaptive ones.
type LeaderKiller struct{}

var _ sim.Adversary = LeaderKiller{}

// Name implements sim.Adversary.
func (LeaderKiller) Name() string { return "leaderkiller" }

// Clone implements sim.Adversary.
func (LeaderKiller) Clone() sim.Adversary { return LeaderKiller{} }

// Plan implements sim.Adversary. To keep the two halves of the system
// adopting different leader bits, it crashes the minimal prefix of
// senders up to (excluding) the first sender whose bit differs from the
// current leader's, delivering each to the upper-id half only: the upper
// half then sees the old leader's bit, the lower half the differing
// successor's.
func (LeaderKiller) Plan(v *sim.View) []sim.CrashPlan {
	if v.Budget == 0 {
		return nil
	}
	var senders []int
	for k := 0; k < v.Words(); k++ {
		for w := v.SendingWord(k); w != 0; w &= w - 1 {
			if i := k<<6 | bits.TrailingZeros64(w); !wire.IsFlood(v.Payload(i)) {
				senders = append(senders, i)
			}
		}
	}
	if len(senders) < 2 {
		return nil
	}
	leadBit := wire.Bit(v.Payload(senders[0]))
	cut := -1
	for k := 1; k < len(senders); k++ {
		if wire.Bit(v.Payload(senders[k])) != leadBit {
			cut = k
			break
		}
	}
	if cut < 0 {
		return nil // unanimous bits: no leader split possible
	}
	// Keep the attack cheap: only worth a few crashes per round.
	const maxPrefix = 3
	if cut > maxPrefix || cut > v.Budget {
		return nil
	}
	half := sim.NewBitSet(v.N)
	cnt, want := 0, v.AliveCount()/2
	for k := v.Words() - 1; k >= 0 && cnt < want; k-- {
		for w := v.AliveWord(k); w != 0 && cnt < want; cnt++ {
			b := 63 - bits.LeadingZeros64(w)
			half.Set(k<<6 | b)
			w &^= 1 << uint(b)
		}
	}
	plans := make([]sim.CrashPlan, 0, cut)
	for k := 0; k < cut; k++ {
		plans = append(plans, sim.CrashPlan{Victim: senders[k], Deliver: half.Clone()})
	}
	return plans
}
