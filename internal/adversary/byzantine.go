package adversary

import (
	"math/bits"

	"synran/internal/sim"
	"synran/internal/wire"
)

// Equivocator is a Byzantine adversary for the corruption-enabled
// engine: it corrupts the processes with the lowest ids at the first
// round (in Phase King those are the kings of the first phases — the
// worst case, wasting one phase per corrupt king) and equivocates every
// round: even-id receivers are told 1, odd-id receivers 0. If the
// corrupted process is the current phase's king, the split king
// broadcast is exactly the attack the king-round lemma must survive.
type Equivocator struct {
	// Corruptions is the number of processes to corrupt (clamped to the
	// budget). Victims are ids 0..Corruptions-1.
	Corruptions int
}

var (
	_ sim.Adversary = (*Equivocator)(nil)
	_ sim.Forger    = (*Equivocator)(nil)
)

// Name implements sim.Adversary.
func (a *Equivocator) Name() string { return "equivocator" }

// Clone implements sim.Adversary.
func (a *Equivocator) Clone() sim.Adversary {
	c := *a
	return &c
}

// Plan implements sim.Adversary: the Equivocator never crashes anyone —
// corruption is strictly more powerful.
func (a *Equivocator) Plan(*sim.View) []sim.CrashPlan { return nil }

// Forge implements sim.Forger.
func (a *Equivocator) Forge(v *sim.View) []sim.Forgery {
	want := a.Corruptions
	if want <= 0 {
		want = v.T
	}
	var forgeries []sim.Forgery
	corrupted := 0
	for k := 0; k < v.Words() && corrupted < want; k++ {
		for w := v.AliveWord(k); w != 0 && corrupted < want; w &= w - 1 {
			i := k<<6 | bits.TrailingZeros64(w)
			if !v.IsCorrupt(i) && v.Budget-len(forgeriesNew(forgeries, v)) <= 0 {
				return forgeries
			}
			per := make([]int64, v.N)
			for j := range per {
				per[j] = wire.Plain(j % 2) // 1 to odd ids, 0 to even ids
			}
			forgeries = append(forgeries, sim.Forgery{Sender: i, PerReceiver: per})
			corrupted++
		}
	}
	return forgeries
}

// forgeriesNew counts the forgeries naming not-yet-corrupted processes
// (the ones that will spend budget).
func forgeriesNew(fs []sim.Forgery, v *sim.View) []sim.Forgery {
	var fresh []sim.Forgery
	for _, f := range fs {
		if !v.IsCorrupt(f.Sender) {
			fresh = append(fresh, f)
		}
	}
	return fresh
}
