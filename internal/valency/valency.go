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
	"errors"
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
	// simulates every rollout.
	Pool []func() sim.Adversary
	// RolloutsPerAdversary is the number of independent futures sampled
	// per pool member (default 24).
	RolloutsPerAdversary int
	// Workers bounds the rollout worker pool (0 = all cores). Rollout
	// seeds depend only on the rollout index, so estimates are identical
	// for every worker count.
	Workers int
	// Seed drives the rollout reseeding.
	Seed uint64
	// UseClone disables the arena snapshot path and takes a fresh
	// Execution.Clone per rollout instead. The results are identical;
	// the flag exists so BenchmarkValencyEstimate can measure the
	// pre-arena baseline (and CI can detect allocation regressions
	// against it).
	UseClone bool
	// Metrics, when non-nil, receives rollout counts (deterministic) and
	// per-worker arena reuse accounting (volatile). Set it before the
	// first Classify call: arenas capture it when they are created.
	Metrics *metrics.Engine

	counter uint64
	// arenas recycle rollout executions, one arena per trials worker so
	// parallel rollouts never contend. They persist across Classify
	// calls: a Stepwise adversary classifying hundreds of successor
	// states reuses the same fleet throughout.
	arenas []*sim.SnapshotArena
	// advCache caches one continuation-adversary instance per
	// (worker, pool entry). Instances implementing sim.ReusableAdversary
	// are reset and reused across rollouts instead of rebuilt, removing
	// the per-rollout factory allocations; others are rebuilt each time.
	// Worker w only ever touches advCache[w], mirroring the arena rule.
	advCache [][]sim.Adversary
	// probes and fanout are Classify's scratch, reused across calls: each
	// member's probe outcome, and the rollout indices still to simulate.
	probes []outcome
	fanout []int
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
	c.arenas = nil
	c.advCache = nil
	c.probes, c.fanout = nil, nil
	return &c
}

// growArenas ensures the estimator owns at least w rollout arenas.
// Worker w only ever touches arenas[w], so parallel rollouts are
// contention- and race-free by construction.
func (e *Estimator) growArenas(w int) {
	for len(e.arenas) < w {
		e.arenas = append(e.arenas, &sim.SnapshotArena{Metrics: e.Metrics, Shard: len(e.arenas)})
	}
	for len(e.advCache) < w {
		e.advCache = append(e.advCache, make([]sim.Adversary, len(e.Pool)))
	}
}

// pooledAdversary returns worker's instance of pool member ai, reusing
// (and resetting) it when the adversary supports it.
func (e *Estimator) pooledAdversary(worker, ai int) sim.Adversary {
	row := e.advCache[worker]
	if r, ok := row[ai].(sim.ReusableAdversary); ok {
		r.ResetAdversary()
		return r
	}
	adv := e.Pool[ai]()
	row[ai] = adv
	return adv
}

// rolloutsPerMember is RolloutsPerAdversary with its default applied.
// Classify takes it in one assignment: assigned twice, the local its
// rollout closures capture would move to the heap, one allocation per
// call that bench-check's allocs/op gate catches.
func (e *Estimator) rolloutsPerMember() int {
	if e.RolloutsPerAdversary > 0 {
		return e.RolloutsPerAdversary
	}
	return 24
}

// Classify estimates the valency of the state of exec at the beginning
// of round k (the paper's α_k), using the Section 3.2 thresholds
// lo = 1/sqrt(n) − k/n and hi = 1 − 1/sqrt(n) + k/n. The execution is
// not modified.
func (e *Estimator) Classify(exec *sim.Execution, k int) (*Estimate, error) {
	if len(e.Pool) == 0 {
		return nil, fmt.Errorf("valency: empty adversary pool")
	}
	rolls := e.rolloutsPerMember()
	// Rollout idx belongs to member idx/rolls, and its reseed value is a
	// function of idx alone (the serial implementation bumped e.counter
	// once per rollout in (ai, j) order; rollout reproduces those exact
	// counter values), so the estimate is byte-identical at any worker
	// count. Each member's first rollout is its probe, run here in worker
	// 0's arena; only the members whose probe drew randomness fan their
	// other rollouts out over the worker pool.
	base := e.counter
	e.growArenas(trials.WorkerCount(e.Workers, len(e.Pool)*rolls))
	e.probes, e.fanout = e.probes[:0], e.fanout[:0]
	for ai := range e.Pool {
		p, err := trials.Call(func(worker, idx int) (outcome, error) {
			return e.rollout(exec, worker, base, idx, rolls), nil
		}, 0, ai*rolls)
		if err != nil {
			return nil, err
		}
		e.probes = append(e.probes, p)
		for j := 1; p.drew && j < rolls; j++ {
			e.fanout = append(e.fanout, ai*rolls+j)
		}
	}
	var rest []outcome
	if len(e.fanout) > 0 {
		var err error
		rest, err = trials.RunWorker(e.Workers, len(e.fanout), func(worker, i int) (outcome, error) {
			return e.rollout(exec, worker, base, e.fanout[i], rolls), nil
		})
		if err != nil {
			var pe *trials.PanicError
			if errors.As(err, &pe) {
				pe.Trial = e.fanout[pe.Trial] // name the rollout, as a probe's error does
			}
			return nil, err
		}
	}
	e.counter = base + uint64(len(e.Pool)*rolls)
	minP, maxP := 1.0, 0.0
	total, extraSum := 0, 0.0
	for _, p := range e.probes {
		var c counts
		if p.drew {
			c.add(p, 1)
			for _, o := range rest[:rolls-1] {
				c.add(o, 1)
			}
			rest = rest[rolls-1:]
		} else {
			c.add(p, rolls) // the probe stands for every rollout of its member
		}
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
	n := exec.N()
	lo := core.ValencyLow(n, k)
	hi := core.ValencyHigh(n, k)
	est := &Estimate{MinP: minP, MaxP: maxP, Rollouts: total, MeanExtraRounds: extraSum / float64(total)}
	switch {
	case minP < lo && maxP > hi:
		est.Class = Bivalent
	case minP < lo:
		est.Class = ZeroValent
	case maxP > hi:
		est.Class = OneValent
	default:
		est.Class = NullValent
	}
	return est, nil
}

// rollout simulates rollout idx, of pool member idx/rolls, from exec in
// worker's arena, or on a fresh Clone when UseClone is set (either copy
// is deep, and the continuation byte-identical).
func (e *Estimator) rollout(exec *sim.Execution, worker int, base uint64, idx, rolls int) outcome {
	if m := e.Metrics; m != nil {
		m.Rollouts.Inc(worker)
	}
	ai := idx / rolls
	var c *sim.Execution
	if e.UseClone {
		c = exec.Clone()
	} else {
		c = e.arenas[worker].Snapshot(exec)
		defer e.arenas[worker].Release(c)
	}
	counter := base + uint64(idx) + 1
	c.ReseedProcesses(e.Seed ^ rng.Uint64At(uint64(ai)<<32|counter))
	// A rollout hitting MaxRounds means the continuation adversary
	// pinned the protocol; it counts as undecided and contributes to
	// neither extreme.
	o := outcome{decided: c.Drive(e.pooledAdversary(worker, ai)) == nil}
	if o.decided {
		o.one = c.ConsensusValue() == 1
		o.extra = float64(c.HaltRound() - exec.Round())
	}
	o.drew = c.DrewSinceReseed()
	return o
}

// counts accumulates one pool member's rollout outcomes.
type counts struct {
	decided, ones int
	extra         float64
}

// add counts o times times. Extra rounds are whole numbers, so the
// float sums are exact whatever the order or multiplicity.
func (c *counts) add(o outcome, times int) {
	if !o.decided {
		return
	}
	c.decided += times
	c.extra += float64(times) * o.extra
	if o.one {
		c.ones += times
	}
}
