// Package valency implements Section 3 of the paper: the probabilistic
// valency classification of executions (bivalent / 0-valent / 1-valent /
// null-valent, Section 3.2) and the adaptive lower-bound adversary built
// on it (Sections 3.3–3.6).
//
// The paper's adversary knows min r(α) and max r(α) — the extreme
// probabilities of deciding 1 over every continuation adversary in the
// class B (those failing at most 4·sqrt(n·log n)+1 processes per round).
// That quantity is not computable exactly, so, per the substitution
// documented in DESIGN.md, this package estimates it by Monte-Carlo:
// clone the execution, reseed the processes' coins, and roll it out to
// completion under a pool of representative continuation adversaries.
// The empirical minimum and maximum of Pr[decide 1] feed the paper's
// thresholds 1/sqrt(n) − k/n and 1 − 1/sqrt(n) + k/n.
package valency

import (
	"fmt"

	"synran/internal/adversary"
	"synran/internal/core"
	"synran/internal/metrics"
	"synran/internal/rng"
	"synran/internal/sim"
	"synran/internal/trials"
)

// Class is the Section 3.2 classification of an execution state.
type Class int

// Classification values follow the paper's table.
const (
	Bivalent Class = iota + 1
	ZeroValent
	OneValent
	NullValent
)

// String renders the class name.
func (c Class) String() string {
	switch c {
	case Bivalent:
		return "bivalent"
	case ZeroValent:
		return "0-valent"
	case OneValent:
		return "1-valent"
	case NullValent:
		return "null-valent"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Univalent reports whether the class is 0-valent or 1-valent.
func (c Class) Univalent() bool { return c == ZeroValent || c == OneValent }

// Estimate is the outcome of a Monte-Carlo valency estimation.
type Estimate struct {
	Class Class
	// MinP and MaxP are the empirical min r(α) and max r(α): the extreme
	// probabilities of deciding 1 over the adversary pool.
	MinP, MaxP float64
	// MeanExtraRounds is the average number of additional rounds the
	// rollouts ran before halting — the lower-bound adversary's
	// tie-breaker when every continuation is univalent (Section 3.5: keep
	// implementing the delaying strategy step by step).
	MeanExtraRounds float64
	// Rollouts is the number of rollouts that terminated, counting the
	// ones a coin-free probe stands for (see Estimator.Pool).
	Rollouts int
}

// Estimator classifies execution states by rollout.
type Estimator struct {
	// Pool is the set of continuation adversary factories; defaults to
	// {none, push0, push1, splitvote} with the paper's per-round cap.
	//
	// A member's plans must depend only on its factory-fresh (or
	// ResetAdversary) state, the views it is shown and what it draws from
	// View.Rng, and it must drive no copy of View.Exec or of a process
	// it reads (DESIGN key decision 8). A rollout's future is then fixed
	// by its start state, its member and the randomness it draws. So
	// Classify first runs one probe rollout per member, and when the
	// probe drew nothing (no coin counted by the kernel, no View.Rng
	// draw: sim.Execution.DrewSinceReseed), the member's other
	// RolloutsPerAdversary − 1 futures are the probe's, and take its
	// outcome without being simulated. The default pool reads nothing
	// from View.Rng; a member that does, or a run on the object core,
	// fans every probe out.
	Pool []func() sim.Adversary
	// RolloutsPerAdversary is the number of independent futures sampled
	// per pool member (default 24).
	RolloutsPerAdversary int
	// Seed drives the rollout reseeding.
	Seed uint64
	// UseClone disables the arena snapshot path and takes a fresh
	// Execution.Clone per rollout instead. The results are identical;
	// the flag exists so BenchmarkValencyEstimate can measure the
	// pre-arena baseline (and CI can detect allocation regressions
	// against it).
	UseClone bool
	// Metrics, when non-nil, receives rollout counts (deterministic) and
	// arena reuse accounting (volatile). Set it before the first
	// classification: the arena captures it when it is created.
	Metrics *metrics.Engine

	counter uint64
	// arena recycles rollout executions. It persists across
	// classifications: a Stepwise adversary classifying hundreds of
	// successor states reuses the same fleet throughout.
	arena *sim.SnapshotArena
	// advs caches one continuation-adversary instance per pool entry.
	// Instances implementing sim.ReusableAdversary are reset and reused
	// across rollouts instead of rebuilt, removing the per-rollout
	// factory allocations; others are rebuilt each time.
	advs []sim.Adversary
	// tally is classify's scratch, reused across calls: each pool
	// member's rollout counts.
	tally []counts
}

// outcome is one rollout's result, and whether it drew any randomness
// after its reseed.
type outcome struct {
	decided, one, drew bool
	extra              float64
}

// NewEstimator returns an estimator with the default pool for an
// n-process system: the per-round cap is the paper's class-B budget.
func NewEstimator(n int, seed uint64) *Estimator {
	cap := core.RoundBudget(n)
	return &Estimator{
		Pool: []func() sim.Adversary{
			func() sim.Adversary { return adversary.None{} },
			func() sim.Adversary { return &adversary.PushTo{Value: 0, PerRound: cap} },
			func() sim.Adversary { return &adversary.PushTo{Value: 1, PerRound: cap} },
			func() sim.Adversary { return &adversary.SplitVote{} },
		},
		RolloutsPerAdversary: 24,
		Seed:                 seed,
	}
}

// Clone returns an independent estimator with the same configuration
// and rollout-counter position. The adversaries wrapping an Estimator
// (LowerBound, Stepwise) deep-copy it in their own Clone: a shared
// estimator would interleave the original's and the clone's counter
// draws, so a cloned adversary's look-ahead would diverge from a
// straight-through replay — a clone-independence bug the conformance
// harness flushed out. The arena fleet is never shared (arenas hold
// per-adversary snapshot shells); the Pool factories are stateless and
// may alias.
func (e *Estimator) Clone() *Estimator {
	c := *e
	c.arena = nil
	c.advs = nil
	c.tally = nil
	return &c
}

// pooledAdversary returns the instance of pool member ai, reusing (and
// resetting) it when the adversary supports it.
func (e *Estimator) pooledAdversary(ai int) sim.Adversary {
	if r, ok := e.advs[ai].(sim.ReusableAdversary); ok {
		r.ResetAdversary()
		return r
	}
	adv := e.Pool[ai]()
	e.advs[ai] = adv
	return adv
}

// rolloutsPerMember is RolloutsPerAdversary with its default applied.
func (e *Estimator) rolloutsPerMember() int {
	if e.RolloutsPerAdversary > 0 {
		return e.RolloutsPerAdversary
	}
	return 24
}

// Classify estimates the valency of the state of exec at the beginning
// of round k (the paper's α_k), using the Section 3.2 thresholds
// lo = 1/sqrt(n) − k/n and hi = 1 − 1/sqrt(n) + k/n. It simulates every
// rollout, so MinP, MaxP and MeanExtraRounds cover the whole pool. The
// execution is not modified.
func (e *Estimator) Classify(exec *sim.Execution, k int) (*Estimate, error) {
	return e.classify(exec, k, false)
}

// AttachMetrics points the look-ahead estimator of adv, when adv is a
// LowerBound or a Stepwise, at m, so its rollouts count into m; any
// other adversary is left as it is. Call it before the first Plan: the
// estimator's arena captures m when it is created.
func AttachMetrics(adv sim.Adversary, m *metrics.Engine) {
	switch a := adv.(type) {
	case *LowerBound:
		a.Est.Metrics = m
	case *Stepwise:
		a.Est.Metrics = m
	}
}

// successor classifies the state that plan leads to from v: the
// look-ahead both Section 3 adversaries make. It finishes v's open round
// under plan on a snapshot from arena and classifies the snapshot,
// stopping its rollouts once the class is settled. It reports false when
// the plan or a rollout fails.
func (e *Estimator) successor(arena *sim.SnapshotArena, v *sim.View, plan []sim.CrashPlan) (*Estimate, bool) {
	c := arena.Snapshot(v.Exec)
	defer arena.Release(c)
	if err := c.FinishRound(plan); err != nil {
		return nil, false
	}
	est, err := e.classify(c, v.Round, true)
	return est, err == nil
}

// classify is the rollout loop behind Classify and successor. It visits
// the pool in order, one rollout at a time: a member's first rollout is
// its probe, and only when the probe drew randomness do the member's
// other rollouts run. Rollout idx belongs to member idx/rolls, and its
// reseed value is a function of idx alone (e.counter bumped once per
// rollout in (ai, j) order; rollout reproduces those exact counter
// values), so a skipped rollout moves no other rollout's seed.
//
// With settle set, classify stops simulating once settledClass fixes the
// class. The look-ahead adversaries read only the class of a bivalent or
// null-valent state, and a univalent class is never fixed early; a
// stopped estimate's MinP, MaxP, MeanExtraRounds and Rollouts cover the
// rollouts it simulated, and a panic in a rollout it skipped never
// surfaces. Either way the counter advances past every rollout of the
// pool, so later calls draw the same seeds.
func (e *Estimator) classify(exec *sim.Execution, k int, settle bool) (*Estimate, error) {
	if len(e.Pool) == 0 {
		return nil, fmt.Errorf("valency: empty adversary pool")
	}
	rolls := e.rolloutsPerMember()
	base := e.counter
	if e.arena == nil {
		e.arena = &sim.SnapshotArena{Metrics: e.Metrics}
		e.advs = make([]sim.Adversary, len(e.Pool))
	}
	e.tally = e.tally[:0]
	for range e.Pool {
		e.tally = append(e.tally, counts{left: rolls})
	}
	lo := core.ValencyLow(exec.N(), k)
	hi := core.ValencyHigh(exec.N(), k)
	for ai := range e.Pool {
		c := &e.tally[ai]
		first := ai * rolls
		p, err := e.call(exec, base, first, rolls)
		if err != nil {
			return nil, err
		}
		if !p.drew {
			c.add(p, rolls) // the probe stands for every rollout of its member
		} else {
			c.add(p, 1)
			if settle && settledClass(e.tally, lo, hi) != 0 {
				break
			}
			for idx := first + 1; idx < first+rolls; idx++ {
				o, err := e.call(exec, base, idx, rolls)
				if err != nil {
					return nil, err
				}
				c.add(o, 1)
			}
		}
		if settle && settledClass(e.tally, lo, hi) != 0 {
			break
		}
	}
	e.counter = base + uint64(len(e.Pool)*rolls)
	minP, maxP := 1.0, 0.0
	total, extraSum := 0, 0.0
	for _, c := range e.tally {
		total += c.decided
		extraSum += c.extra
		if c.decided == 0 {
			continue
		}
		r := float64(c.ones) / float64(c.decided)
		if r < minP {
			minP = r
		}
		if r > maxP {
			maxP = r
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("valency: no rollout terminated")
	}
	return &Estimate{
		Class: settledClass(e.tally, lo, hi),
		MinP:  minP, MaxP: maxP, Rollouts: total, MeanExtraRounds: extraSum / float64(total),
	}, nil
}

// settledClass is the Section 3.2 class that the members' tallies fix
// whatever their rollouts not yet simulated do, or 0 while it is open. A
// member whose d rollouts have decided, o of them 1, with r left ends
// with a ratio of 1-decisions in [o/(d+r), (o+r)/(d+r)]. The class is
// bivalent once one member must end below lo and one above hi, and
// null-valent once none can end below lo or above hi and some rollout
// has decided. A univalent class is fixed only when nothing is left,
// since candScore then reads MeanExtraRounds. (A member with d+r = 0
// has NaN bounds, which fail every comparison: a member none of whose
// rollouts decided counts for neither extreme.)
func settledClass(tally []counts, lo, hi float64) Class {
	var below, above, mayBelow, mayAbove bool
	decided, left := 0, 0
	for _, c := range tally {
		d := float64(c.decided + c.left)
		least, most := float64(c.ones)/d, float64(c.ones+c.left)/d
		below = below || most < lo
		above = above || least > hi
		mayBelow = mayBelow || least < lo
		mayAbove = mayAbove || most > hi
		decided += c.decided
		left += c.left
	}
	switch {
	case below && above:
		return Bivalent
	case decided > 0 && !mayBelow && !mayAbove:
		return NullValent
	case left > 0:
		return 0
	case below:
		return ZeroValent
	case above:
		return OneValent
	}
	return 0 // no rollout decided
}

// call simulates rollout idx with the trial pool's panic isolation: a
// panic comes back as the *trials.PanicError naming idx.
func (e *Estimator) call(exec *sim.Execution, base uint64, idx, rolls int) (outcome, error) {
	return trials.Call(func(_, idx int) (outcome, error) {
		return e.rollout(exec, base, idx, rolls), nil
	}, 0, idx)
}

// rollout simulates rollout idx, of pool member idx/rolls, from exec in
// the arena, or on a fresh Clone when UseClone is set (either copy is
// deep, and the continuation byte-identical).
func (e *Estimator) rollout(exec *sim.Execution, base uint64, idx, rolls int) outcome {
	if m := e.Metrics; m != nil {
		m.Rollouts.Inc(0)
	}
	ai := idx / rolls
	var c *sim.Execution
	if e.UseClone {
		c = exec.Clone()
	} else {
		c = e.arena.Snapshot(exec)
		defer e.arena.Release(c)
	}
	counter := base + uint64(idx) + 1
	c.ReseedProcesses(e.Seed ^ rng.Uint64At(uint64(ai)<<32|counter))
	// A rollout hitting MaxRounds means the continuation adversary
	// pinned the protocol; it counts as undecided and contributes to
	// neither extreme.
	o := outcome{decided: c.Drive(e.pooledAdversary(ai)) == nil}
	if o.decided {
		o.one = c.ConsensusValue() == 1
		o.extra = float64(c.HaltRound() - exec.Round())
	}
	o.drew = c.DrewSinceReseed()
	return o
}

// counts accumulates one pool member's rollout outcomes; left counts
// its rollouts not yet simulated.
type counts struct {
	decided, ones, left int
	extra               float64
}

// add counts o times times. Extra rounds are whole numbers, so the
// float sums are exact whatever the order or multiplicity.
func (c *counts) add(o outcome, times int) {
	c.left -= times
	if !o.decided {
		return
	}
	c.decided += times
	c.extra += float64(times) * o.extra
	if o.one {
		c.ones += times
	}
}
