package adversary

import (
	"fmt"
	"math/bits"

	"synran/internal/sim"
	"synran/internal/wire"
)

// Omission is the adaptive-omission adversary family: instead of
// crashing processes (charged against t), it silences a victim's
// outgoing links from the current round on, with CrashPlan-style
// partial delivery of the in-flight message. Demotions are charged
// against the engines' fault budget (sim.Config.FaultBudget /
// netsim.Options.FaultBudget), never against the crash budget, so the
// protocol's t-resilience is untouched while its view of the network
// degrades — the send-omission model of Hajiaghayi–Kowalski–Olkowski
// (arXiv 2405.04762) restricted to unrecoverable victims.
//
// Two modes:
//
//   - "split": each round, silence the lowest-id live sender of the
//     current majority value, delivering its in-flight message only to
//     the lower half of the live receivers. This is the omission-model
//     analogue of SplitVote's view-splitting lever: the halves disagree
//     on one vote and their threshold counts drift apart.
//   - "random": with probability 0.6 per round, silence a uniformly
//     random live process with a uniformly random delivery mask — the
//     omission-model background fuzzer, mirroring Random.
//
// Both self-limit at Budget plans so cross-lane runs stay within the
// engine's budget without triggering its deterministic skip path.
type Omission struct {
	// Mode selects the strategy: "split" (default) or "random".
	Mode string
	// Budget is the number of demotions the adversary allows itself; it
	// should match the engine's FaultBudget.
	Budget int

	spent int
	mask  *sim.BitSet // reusable scratch, never shared between clones
}

var _ sim.Omitter = (*Omission)(nil)
var _ sim.ReusableAdversary = (*Omission)(nil)

// Name implements sim.Adversary.
func (a *Omission) Name() string { return "omission-" + a.mode() }

func (a *Omission) mode() string {
	if a.Mode == "" {
		return "split"
	}
	return a.Mode
}

// Clone implements sim.Adversary. The scratch mask is deliberately not
// carried over: the clone lazily allocates its own, so fork and base
// can never alias one delivery buffer.
func (a *Omission) Clone() sim.Adversary {
	return &Omission{Mode: a.Mode, Budget: a.Budget, spent: a.spent}
}

// ResetAdversary implements sim.ReusableAdversary.
func (a *Omission) ResetAdversary() { a.spent = 0 }

// Plan implements sim.Adversary: the family never crashes anyone.
func (a *Omission) Plan(*sim.View) []sim.CrashPlan { return nil }

// Omit implements sim.Omitter.
func (a *Omission) Omit(v *sim.View) []sim.CrashPlan {
	if a.spent >= a.Budget {
		return nil
	}
	switch a.mode() {
	case "random":
		return a.omitRandom(v)
	case "split":
		return a.omitSplit(v)
	default:
		panic(fmt.Sprintf("adversary: unknown omission mode %q", a.Mode))
	}
}

// omitSplit silences the lowest-id live sender of the round's majority
// value, showing its message only to the lower half of live receivers.
func (a *Omission) omitSplit(v *sim.View) []sim.CrashPlan {
	ones, zeros, victimOne, victimZero := 0, 0, -1, -1
	for k := 0; k < v.Words(); k++ {
		for w := v.SendingWord(k) & v.AliveWord(k); w != 0; w &= w - 1 {
			i := k<<6 | bits.TrailingZeros64(w)
			if payloadBit(v.Payload(i)) == 1 {
				ones++
				if victimOne < 0 {
					victimOne = i
				}
			} else {
				zeros++
				if victimZero < 0 {
					victimZero = i
				}
			}
		}
	}
	victim := victimOne
	if zeros > ones || victim < 0 {
		victim = victimZero
	}
	if victim < 0 {
		return nil
	}
	if a.mask == nil {
		a.mask = sim.NewBitSet(v.N)
	} else {
		a.mask.Reset(v.N)
	}
	half := v.AliveCount() / 2
	for k, got := 0, 0; k < v.Words() && got < half; k++ {
		for w := v.AliveWord(k); w != 0 && got < half; w &= w - 1 {
			a.mask.Set(k<<6 | bits.TrailingZeros64(w))
			got++
		}
	}
	a.spent++
	return []sim.CrashPlan{{Victim: victim, Deliver: a.mask}}
}

// omitRandom silences, with probability 0.6, a uniformly random live
// process with a uniformly random delivery mask.
func (a *Omission) omitRandom(v *sim.View) []sim.CrashPlan {
	if v.Rng.Float64() >= 0.6 {
		return nil
	}
	victim := pickRandomAlive(v, nil)
	if victim < 0 {
		return nil
	}
	mask := sim.NewBitSet(v.N)
	for j := 0; j < v.N; j++ {
		if v.Rng.Bool() {
			mask.Set(j)
		}
	}
	a.spent++
	return []sim.CrashPlan{{Victim: victim, Deliver: mask}}
}

// payloadBit classifies a Phase-A payload as a 0- or 1-vote: plain bit
// payloads by their low bit, flood and beacon payloads by whether a
// one-witness (MaskOne) is present.
func payloadBit(p int64) int {
	if wire.IsBeacon(p) || wire.IsFlood(p) {
		if p&wire.MaskOne != 0 {
			return 1
		}
		return 0
	}
	return int(p & 1)
}
