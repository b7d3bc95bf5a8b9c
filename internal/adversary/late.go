package adversary

import "synran/internal/sim"

// Late is the ε-delayed ("late") adversary wrapper of Robinson,
// Scheideler and Setzer (arXiv 1805.00774): it wraps any fail-stop
// strategy but feeds it a view that is Delay rounds stale. The inner
// strategy's corruption choices are therefore computed from where the
// protocol WAS, not where it is — which is exactly the handicap that
// lets randomized protocols beat the adaptive fail-stop lower bound:
// by the time the stale view identifies this round's pivotal senders,
// their messages are already delivered. Experiment E19 measures the
// resulting round-count gap against the full-information SplitVote.
//
// Victims the inner strategy names may have crashed or halted in the
// rounds it cannot see; both engines skip such plans deterministically,
// so all five conformance lanes agree.
type Late struct {
	// Inner is the wrapped strategy; it receives the stale views.
	Inner sim.Adversary
	// Delay is ε: how many rounds stale the view is (default 2).
	Delay int
	// Tag names the family in scenario spellings ("split", "random");
	// Name() is "late-"+Tag.
	Tag string

	hist []lateSnap // ring buffer of the last Delay+1 round states
}

// lateSnap is one recorded round state. Sets and slices are owned
// copies, never aliases of engine state (the View contract forbids
// retaining those).
type lateSnap struct {
	round                  int
	alive, halted, sending sim.BitSet
	payloads               []int64
}

var _ sim.Adversary = (*Late)(nil)
var _ sim.ReusableAdversary = (*Late)(nil)

// Name implements sim.Adversary.
func (a *Late) Name() string { return "late-" + a.Tag }

func (a *Late) delay() int {
	if a.Delay <= 0 {
		return 2
	}
	return a.Delay
}

// Clone implements sim.Adversary: the inner strategy and every recorded
// snapshot are deep-copied, so fork and base share no buffers.
func (a *Late) Clone() sim.Adversary {
	c := &Late{Inner: a.Inner.Clone(), Delay: a.Delay, Tag: a.Tag}
	if a.hist != nil {
		c.hist = make([]lateSnap, len(a.hist))
		for i := range a.hist {
			s, d := &a.hist[i], &c.hist[i]
			d.round = s.round
			d.alive.CopyFrom(&s.alive)
			d.halted.CopyFrom(&s.halted)
			d.sending.CopyFrom(&s.sending)
			d.payloads = append([]int64(nil), s.payloads...)
		}
	}
	return c
}

// ResetAdversary implements sim.ReusableAdversary.
func (a *Late) ResetAdversary() {
	for i := range a.hist {
		a.hist[i].round = 0
	}
	if r, ok := a.Inner.(sim.ReusableAdversary); ok {
		r.ResetAdversary()
	}
}

// Plan implements sim.Adversary: record this round's state, then let
// the inner strategy plan against the state of Delay rounds ago. The
// first Delay rounds are attack-free — the adversary has not seen
// anything yet, the protocol runs unhindered.
func (a *Late) Plan(v *sim.View) []sim.CrashPlan {
	d := a.delay()
	a.record(v, d)
	stale := a.snapAt(v.Round - d)
	if stale == nil {
		return nil
	}
	sv := sim.NewView(sim.ViewState{
		Round:    stale.round,
		N:        v.N,
		T:        v.T,
		Budget:   v.Budget, // the REAL remaining budget: spending is never stale
		Alive:    &stale.alive,
		Halted:   &stale.halted,
		Sending:  &stale.sending,
		Payloads: stale.payloads,
		Rng:      v.Rng,
	})
	return a.Inner.Plan(sv)
}

// record copies round state into the ring slot for v.Round.
func (a *Late) record(v *sim.View, d int) {
	if len(a.hist) != d+1 {
		a.hist = make([]lateSnap, d+1)
	}
	s := &a.hist[v.Round%(d+1)]
	s.round = v.Round
	s.alive.Reset(v.N)
	s.halted.Reset(v.N)
	s.sending.Reset(v.N)
	for k := 0; k < v.Words(); k++ {
		s.alive.SetWord(k, v.AliveWord(k))
		s.halted.SetWord(k, v.HaltedWord(k))
		s.sending.SetWord(k, v.SendingWord(k))
	}
	if cap(s.payloads) < v.N {
		s.payloads = make([]int64, v.N)
	} else {
		s.payloads = s.payloads[:v.N]
	}
	for i := 0; i < v.N; i++ {
		s.payloads[i] = v.Payload(i)
	}
}

// snapAt returns the recorded state for the given round, or nil if it
// was never recorded (rounds before the run started).
func (a *Late) snapAt(round int) *lateSnap {
	if round < 1 {
		return nil
	}
	s := &a.hist[round%len(a.hist)]
	if s.round != round {
		return nil
	}
	return s
}
