package valency

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"synran/internal/adversary"
	"synran/internal/core"
	"synran/internal/metrics"
	"synran/internal/sim"
	"synran/internal/trials"
)

// probeRolls keeps the differential test affordable: the object core
// simulates every rollout of every member.
const probeRolls = 8

// estimatorPair classifies the same states on the default core (dflt,
// which may let a coin-free probe stand for its member) and on the
// object core (obj, which simulates every rollout).
type estimatorPair struct {
	name      string
	dflt, obj *Estimator
	// randomBuilt counts the dflt estimator's adversary.Random
	// instances, one per simulated rollout of that member (Random is not
	// a sim.ReusableAdversary); nil when the pool has no Random member.
	randomBuilt *atomic.Int64
}

func newPair(t *testing.T, name string, n int, seed uint64, withRandom bool) *estimatorPair {
	t.Helper()
	p := &estimatorPair{name: name}
	for _, est := range []**Estimator{&p.dflt, &p.obj} {
		e := NewEstimator(n, seed)
		e.RolloutsPerAdversary = probeRolls
		e.Metrics = metrics.NewEngine(metrics.New(2))
		*est = e
	}
	if withRandom {
		random := func() sim.Adversary { return &adversary.Random{MaxPerRound: core.RoundBudget(n)} }
		p.randomBuilt = new(atomic.Int64)
		p.dflt.Pool = append(p.dflt.Pool, func() sim.Adversary { p.randomBuilt.Add(1); return random() })
		p.obj.Pool = append(p.obj.Pool, random)
	}
	return p
}

func simulated(e *Estimator) int64 { return int64(e.Metrics.Rollouts.Value()) }

// TestProbeShortcutMatchesObjectCore drives LowerBound and Stepwise
// executions on the default core with a twin pinned to the object core
// (the same plans applied to both), and classifies the state after each
// FinishRound on both. The default core runs a pool member's other
// rollouts only when its probe drew randomness; the object core runs
// them all. Estimates and rollout counters must match exactly; the
// shortcut must fire in some states and not in others; and a member
// that draws from View.Rng (adversary.Random) must never take it.
func TestProbeShortcutMatchesObjectCore(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	drivers := []struct {
		name string
		mk   func(n int, seed uint64) sim.Adversary
	}{
		{"lowerbound", func(n int, seed uint64) sim.Adversary { return NewLowerBound(n, seed) }},
		{"stepwise", func(n int, seed uint64) sim.Adversary { return NewStepwise(n, seed) }},
	}
	var fired, notFired int
	for _, n := range []int{5, 12, 16} {
		full := int64(len(NewEstimator(n, 0).Pool) * probeRolls)
		for _, seed := range seeds {
			for _, d := range drivers {
				inputs := halfInputs(n)
				dflt := newExec(t, n, n-1, inputs, seed)
				procs, err := core.NewProcs(n, inputs, seed, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				obj, err := sim.NewExecution(sim.Config{N: n, T: n - 1, Engine: sim.EngineObject}, procs, inputs, seed)
				if err != nil {
					t.Fatal(err)
				}
				pairs := []*estimatorPair{
					newPair(t, "default pool", n, seed+100, false),
					newPair(t, "pool with random", n, seed+200, true),
				}
				adv := d.mk(n, seed)
				for !dflt.Done() {
					v, err := dflt.StepPhaseA()
					if err != nil {
						t.Fatal(err)
					}
					if _, err := obj.StepPhaseA(); err != nil {
						t.Fatal(err)
					}
					plans := adv.Plan(v)
					if err := dflt.FinishRound(plans); err != nil {
						t.Fatal(err)
					}
					if err := obj.FinishRound(plans); err != nil {
						t.Fatal(err)
					}
					where := func(p *estimatorPair) string {
						return fmt.Sprintf("%s n=%d seed=%d round %d, %s", d.name, n, seed, dflt.Round(), p.name)
					}
					for _, p := range pairs {
						dBefore, oBefore := simulated(p.dflt), simulated(p.obj)
						var builtBefore int64
						if p.randomBuilt != nil {
							builtBefore = p.randomBuilt.Load()
						}
						a, errA := p.dflt.Classify(dflt, dflt.Round())
						b, errB := p.obj.Classify(obj, obj.Round())
						if (errA == nil) != (errB == nil) {
							t.Fatalf("%s: default core err %v, object core err %v", where(p), errA, errB)
						}
						if errA == nil && *a != *b {
							t.Fatalf("%s: default core %+v, object core %+v", where(p), *a, *b)
						}
						if p.dflt.counter != p.obj.counter {
							t.Fatalf("%s: counters %d and %d", where(p), p.dflt.counter, p.obj.counter)
						}
						poolFull := int64(len(p.obj.Pool) * probeRolls)
						if got := simulated(p.obj) - oBefore; got != poolFull {
							t.Fatalf("%s: object core simulated %d rollouts, want all %d", where(p), got, poolFull)
						}
						got := simulated(p.dflt) - dBefore
						if p.randomBuilt == nil {
							if got < full {
								fired++
							} else {
								notFired++
							}
						} else if !dflt.Done() && dflt.Budget() > 0 {
							// Random draws from View.Rng in its first Plan
							// call, so its probe never stands for the rest.
							if built := p.randomBuilt.Load() - builtBefore; built != probeRolls {
								t.Fatalf("%s: the Random member simulated %d rollouts, want %d", where(p), built, probeRolls)
							}
						}
					}
				}
			}
		}
	}
	if fired == 0 || notFired == 0 {
		t.Fatalf("shortcut fired in %d states and not in %d; want both kinds", fired, notFired)
	}
	t.Logf("default pool: shortcut fired in %d states, not in %d", fired, notFired)
}

// panicky is a pool member that draws from View.Rng in every Plan call,
// so its rollouts fan out, and panics there when told to.
type panicky struct{ panics bool }

func (a *panicky) Name() string         { return "panicky" }
func (a *panicky) Clone() sim.Adversary { c := *a; return &c }
func (a *panicky) Plan(v *sim.View) []sim.CrashPlan {
	v.Rng.Uint64()
	if a.panics {
		panic("panicky: boom")
	}
	return nil
}

// TestClassifyPanickingRolloutIsAnError: a pool member panicking in its
// probe, or in a fanned-out rollout, comes back as Classify's
// *trials.PanicError naming the flat rollout index.
func TestClassifyPanickingRolloutIsAnError(t *testing.T) {
	const n, rolls = 8, 4
	for _, tc := range []struct {
		name      string
		panicFrom int // first panicking instance of the member (1 = its probe)
		wantTrial int
	}{
		{"probe", 1, rolls},          // member 1's probe is rollout rolls
		{"fanned out", 2, rolls + 1}, // its second rollout is rolls+1
	} {
		t.Run(tc.name, func(t *testing.T) {
			exec := newExec(t, n, n-1, halfInputs(n), 1)
			built := 0
			e := NewEstimator(n, 1)
			e.RolloutsPerAdversary = rolls
			e.Pool = []func() sim.Adversary{
				func() sim.Adversary { return adversary.None{} },
				func() sim.Adversary { built++; return &panicky{panics: built >= tc.panicFrom} },
			}
			_, err := e.Classify(exec, 0)
			var pe *trials.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("Classify error %v, want a *trials.PanicError", err)
			}
			if pe.Trial != tc.wantTrial {
				t.Fatalf("panic attributed to rollout %d, want %d", pe.Trial, tc.wantTrial)
			}
		})
	}
}
