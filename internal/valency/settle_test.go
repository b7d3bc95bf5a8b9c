package valency

import (
	"fmt"
	"slices"
	"testing"

	"synran/internal/core"
	"synran/internal/metrics"
	"synran/internal/sim"
)

// settleCheck classifies each successor state a look-ahead adversary
// inspects twice, on two twins of the adversary's estimator: settled
// (the adversaries' own path, which stops once the class is fixed) and
// in full (Classify). It fails the test unless they agree wherever the
// adversaries read the estimate.
type settleCheck struct {
	t             *testing.T
	settled, full *Estimator
	arena         sim.SnapshotArena
	where         string
	stats         *settleStats
}

// settleStats counts the states checked, the settled classifications
// that simulated fewer rollouts than the full ones, by class, and those
// at k ≥ √n whose first probe decided.
type settleStats struct{ states, bivalent, null, firstProbe int }

func newSettleCheck(t *testing.T, est *Estimator, stats *settleStats) *settleCheck {
	s := &settleCheck{t: t, settled: est.Clone(), full: est.Clone(), stats: stats}
	s.settled.Metrics = metrics.NewEngine(metrics.New(2))
	s.full.Metrics = metrics.NewEngine(metrics.New(2))
	return s
}

// classify is the look-ahead the replicas below make: it returns the
// settled estimate after checking it against the full one.
func (s *settleCheck) classify(v *sim.View, plan []sim.CrashPlan) (*Estimate, bool) {
	t := s.t
	t.Helper()
	n, k, rolls := v.N, v.Round, s.full.rolloutsPerMember()
	base, fullBefore := s.full.counter, simulated(s.full)
	c := s.arena.Snapshot(v.Exec)
	want, errFull := (*Estimate)(nil), c.FinishRound(plan)
	if errFull == nil {
		want, errFull = s.full.Classify(c, k)
	}
	var first outcome // the first probe's outcome
	if errFull == nil && k*k >= n {
		first, errFull = s.full.call(c, base, 0, rolls)
	}
	s.arena.Release(c)
	fullRolls := simulated(s.full) - fullBefore

	before := simulated(s.settled)
	got, ok := s.settled.successor(&s.arena, v, plan)
	settledRolls := simulated(s.settled) - before
	where := fmt.Sprintf("%s, plan %v", s.where, plan)
	switch {
	case ok != (errFull == nil):
		t.Fatalf("%s: settled ok=%v, full error %v", where, ok, errFull)
	case s.settled.counter != s.full.counter:
		t.Fatalf("%s: settled counter %d, full counter %d", where, s.settled.counter, s.full.counter)
	case !ok:
		return nil, false
	case got.Class != want.Class:
		t.Fatalf("%s: settled class %v, full %+v", where, got.Class, *want)
	case want.Class.Univalent() && *got != *want:
		t.Fatalf("%s: settled %+v, full %+v", where, *got, *want)
	case k*k >= n && first.decided && settledRolls != 1:
		t.Fatalf("%s: at k=%d ≥ √n the first probe decided, but %d rollouts ran", where, k, settledRolls)
	}
	s.stats.states++
	if k*k >= n && first.decided {
		s.stats.firstProbe++
	}
	switch {
	case settledRolls == fullRolls:
	case want.Class.Univalent():
		t.Fatalf("%s: a %v class stopped after %d of %d rollouts", where, want.Class, settledRolls, fullRolls)
	case want.Class == Bivalent:
		s.stats.bivalent++
	default:
		s.stats.null++
	}
	return got, true
}

// lowerBoundReplica is LowerBound.Plan with classify as its look-ahead.
func lowerBoundReplica(a *LowerBound, v *sim.View, classify func([]sim.CrashPlan) (*Estimate, bool)) []sim.CrashPlan {
	cands := oracleCandidates(v, roundCap(a.PerRound, v))
	best, bestScore := cands[0], 3.0
	for _, cand := range cands {
		est, ok := classify(cand)
		if !ok {
			continue
		}
		score := candScore(est)
		if score < bestScore {
			best, bestScore = cand, score
		}
		if score == 0 {
			break
		}
	}
	return best
}

// stepwiseReplica is Stepwise.Plan's walk with classify as its
// look-ahead.
func stepwiseReplica(a *Stepwise, v *sim.View, classify func([]sim.CrashPlan) (*Estimate, bool)) []sim.CrashPlan {
	perRound := roundCap(a.PerRound, v)
	if perRound <= 0 {
		return nil
	}
	base, ok := classify(nil)
	if !ok || !base.Class.Univalent() {
		return nil
	}
	target := 0
	if base.Class == ZeroValent {
		target = 1
	}
	victims := appendSendersWithBit(appendSendersWithBit(nil, v, 1-target), v, target)
	var plan []sim.CrashPlan
	class := base.Class
	for _, victim := range victims {
		if len(plan) >= perRound {
			break
		}
		trial := append(slices.Clip(plan), sim.CrashPlan{Victim: victim})
		est, ok := classify(trial)
		switch {
		case !ok:
		case !est.Class.Univalent():
			return trial
		case est.Class != class:
			refined := append(slices.Clip(plan), sim.CrashPlan{Victim: victim, Deliver: new(Stepwise).halfMask(v)})
			if est, ok := classify(refined); ok && !est.Class.Univalent() {
				return refined
			}
			return plan
		default:
			plan, class = trial, est.Class
		}
	}
	return plan
}

// TestSettledClassMatchesClassify drives LowerBound and Stepwise
// executions on both engine cores and checks every successor state they
// classify: the settled classification must give Classify's class, its
// whole estimate when the class is univalent, and its rollout counter;
// at k ≥ √n a decided first probe must be the only rollout simulated.
// Replicas of the two Plan methods make the look-ahead calls through
// the check, and each round's plan must equal the adversary's own, so
// the checked states are exactly the ones the adversary classified.
func TestSettledClassMatchesClassify(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	var stats settleStats
	for _, engine := range []string{sim.EngineSoA, sim.EngineObject} {
		for _, n := range []int{5, 8, 12, 16} {
			for _, seed := range seeds {
				for _, kind := range []string{"lowerbound", "stepwise"} {
					inputs := halfInputs(n)
					procs, err := core.NewProcs(n, inputs, seed, core.Options{})
					if err != nil {
						t.Fatal(err)
					}
					exec, err := sim.NewExecution(sim.Config{N: n, T: n - 1, Engine: engine}, procs, inputs, seed)
					if err != nil {
						t.Fatal(err)
					}
					var (
						adv     sim.Adversary
						est     *Estimator
						replica func(*sim.View, func([]sim.CrashPlan) (*Estimate, bool)) []sim.CrashPlan
					)
					if kind == "lowerbound" {
						a := NewLowerBound(n, seed)
						adv, est = a, a.Est
						replica = func(v *sim.View, c func([]sim.CrashPlan) (*Estimate, bool)) []sim.CrashPlan {
							return lowerBoundReplica(a, v, c)
						}
					} else {
						a := NewStepwise(n, seed)
						adv, est = a, a.Est
						replica = func(v *sim.View, c func([]sim.CrashPlan) (*Estimate, bool)) []sim.CrashPlan {
							return stepwiseReplica(a, v, c)
						}
					}
					check := newSettleCheck(t, est, &stats)
					for !exec.Done() {
						v, err := exec.StepPhaseA()
						if err != nil {
							t.Fatal(err)
						}
						check.where = fmt.Sprintf("%s core, %s n=%d seed=%d round %d", engine, kind, n, seed, v.Round)
						want := replica(v, func(plan []sim.CrashPlan) (*Estimate, bool) { return check.classify(v, plan) })
						got := adv.Plan(v)
						if d := candidatesDiff([][]sim.CrashPlan{got}, [][]sim.CrashPlan{want}); d != "" {
							t.Fatalf("%s: the replica's plan differs from the adversary's: %s", check.where, d)
						}
						if est.counter != check.full.counter {
							t.Fatalf("%s: the adversary classified %d states, the replica %d", check.where,
								est.counter/uint64(len(est.Pool)*est.rolloutsPerMember()),
								check.full.counter/uint64(len(est.Pool)*est.rolloutsPerMember()))
						}
						if err := exec.FinishRound(got); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
	}
	if stats.bivalent == 0 || stats.null == 0 || stats.firstProbe == 0 {
		t.Fatalf("early stops: %+v; want each kind", stats)
	}
	t.Logf("early stops: %+v", stats)
}
