package chaos

import (
	"fmt"
	"math/bits"

	"synran/internal/sim"
)

// retransmits is the number of re-sends of a lost message: a message
// reaches its receiver unless all 1 + retransmits attempts are dropped.
const retransmits = 2

// Lossy runs an adversary over links that drop messages. It is the
// lock-step form of lossy links: a sender whose round message is still
// lost to some receiver after 1 + retransmits attempts is demoted, the
// send-omission fault of the omission adversaries (see sim.Omitter).
// Its outgoing links fall silent from this round on, its round message
// reaches exactly the receivers that got it, and the demotion is charged
// to the execution's fault budget (sim.Config.FaultBudget), never to
// the crash budget T.
//
// Each round Lossy visits the senders in index order, after the inner
// adversary has planned. A sender is every process sending this round
// that the inner adversary neither crashed nor silenced. A loss counts
// only toward an alive, non-halted receiver that the inner adversary
// did not crash or silence this round. Like adversary.Omission, Lossy
// stops at the fault budget left once the inner adversary's own
// omissions are counted: a loss past it is not demoted, and the
// message goes through.
//
// The fault trace is a pure function of the injector's (seed, Config)
// and the run: Lossy draws nothing from the adversary's stream, so a
// zero-rate Lossy leaves an execution exactly as the inner adversary
// alone would.
type Lossy struct {
	inner sim.Adversary
	inj   *Injector

	// Per-round scratch, never shared between clones: the victims the
	// inner adversary's plans will claim, the round's receivers, the
	// plans Omit returns, and one delivery mask per demotion (the
	// engine groups victims by mask pointer, so each demotion of a
	// round needs its own).
	victims   sim.BitSet
	receivers []int
	plans     []sim.CrashPlan
	masks     []*sim.BitSet
}

var _ sim.Omitter = (*Lossy)(nil)

// Wrap returns inner running over the injector's lossy links. A
// Byzantine inner adversary (a sim.Forger) is refused: the engine
// consults an Omitter's Omit instead of Forge, so its forgeries would
// silently never happen.
func Wrap(inner sim.Adversary, inj *Injector) (*Lossy, error) {
	if _, ok := inner.(sim.Forger); ok {
		return nil, fmt.Errorf("chaos: adversary %q is Byzantine; lossy links take a crash or omission adversary", inner.Name())
	}
	return &Lossy{inner: inner, inj: inj}, nil
}

// Name implements sim.Adversary: the inner adversary's name.
func (l *Lossy) Name() string { return l.inner.Name() }

// Clone implements sim.Adversary. The injector is immutable and shared;
// the scratch is not carried over.
func (l *Lossy) Clone() sim.Adversary { return &Lossy{inner: l.inner.Clone(), inj: l.inj} }

// Plan implements sim.Adversary: the inner adversary's crash plans,
// whose victims Omit then leaves alone.
func (l *Lossy) Plan(v *sim.View) []sim.CrashPlan {
	plans := l.inner.Plan(v)
	l.victims.Reset(v.N)
	l.claim(v, plans, v.Budget)
	return plans
}

// Omit implements sim.Omitter: the inner adversary's omission plans,
// then one demotion per sender that lost a message, in index order, up
// to the fault budget left.
func (l *Lossy) Omit(v *sim.View) []sim.CrashPlan {
	var inner []sim.CrashPlan
	if om, ok := l.inner.(sim.Omitter); ok {
		inner = om.Omit(v)
	}
	left := v.Exec.FaultBudgetLeft()
	left -= l.claim(v, inner, left)
	if left <= 0 || l.inj.drop == 0 {
		return inner
	}
	l.receivers = l.receivers[:0]
	for k := 0; k < v.Words(); k++ {
		for w := v.LiveWord(k) &^ l.victims.Word(k); w != 0; w &= w - 1 {
			l.receivers = append(l.receivers, k<<6|bits.TrailingZeros64(w))
		}
	}
	plans := append(l.plans[:0], inner...)
	for k := 0; k < v.Words() && left > 0; k++ {
		for w := v.SendingWord(k) &^ l.victims.Word(k); w != 0 && left > 0; w &= w - 1 {
			i := k<<6 | bits.TrailingZeros64(w)
			if mask, lost := l.transmit(v, i, len(plans)-len(inner)); lost {
				plans = append(plans, sim.CrashPlan{Victim: i, Deliver: mask})
				left--
			}
		}
	}
	l.plans = plans
	return plans
}

// claim marks the victims the engine will take from plans under budget,
// by the engine's own rules: out-of-range, dead, corrupt and already
// claimed victims are skipped, and the first valid victim past the
// budget ends the list. It returns how many it marked.
func (l *Lossy) claim(v *sim.View, plans []sim.CrashPlan, budget int) int {
	spent := 0
	for _, p := range plans {
		i := p.Victim
		if i < 0 || i >= v.N || !v.IsAlive(i) || v.IsCorrupt(i) || l.victims.Get(i) {
			continue
		}
		if spent >= budget {
			break
		}
		spent++
		l.victims.Set(i)
	}
	return spent
}

// transmit sends sender i's round message to every receiver, each copy
// re-sent up to retransmits times, and returns the round's d-th
// demotion mask filled with the receivers it reached, and whether some
// receiver missed it.
func (l *Lossy) transmit(v *sim.View, i, d int) (*sim.BitSet, bool) {
	if d == len(l.masks) {
		l.masks = append(l.masks, new(sim.BitSet))
	}
	mask := l.masks[d]
	mask.Reset(v.N)
	lost := false
	for _, j := range l.receivers {
		if j == i {
			continue
		}
		if l.reaches(v.Round, i, j) {
			mask.Set(j)
		} else {
			lost = true
		}
	}
	return mask, lost
}

// reaches reports whether some attempt of the round's from -> to
// message gets through.
func (l *Lossy) reaches(round, from, to int) bool {
	for attempt := 0; attempt <= retransmits; attempt++ {
		if !l.inj.Drop(round, from, to, attempt) {
			return true
		}
	}
	return false
}
