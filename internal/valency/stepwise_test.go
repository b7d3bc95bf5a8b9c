package valency

import (
	"testing"

	"synran/internal/adversary"
	"synran/internal/core"
	"synran/internal/sim"
)

func TestStepwiseSafety(t *testing.T) {
	const n = 10
	inputs := halfInputs(n)
	for seed := uint64(0); seed < 3; seed++ {
		sw := NewStepwise(n, seed)
		sw.Est.RolloutsPerAdversary = 10
		res, err := core.Run(core.RunSpec{
			N: n, T: n - 1, Inputs: inputs, Seed: seed,
			Adversary: sw, MaxRounds: 60 * n,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Agreement || !res.Validity {
			t.Fatalf("seed %d: stepwise adversary broke safety", seed)
		}
	}
}

func TestStepwiseExtendsExecutions(t *testing.T) {
	if testing.Short() {
		t.Skip("classification-per-microstep is expensive")
	}
	const n = 10
	inputs := halfInputs(n)
	base, forced := 0, 0
	const trials = 4
	for seed := uint64(0); seed < trials; seed++ {
		r0, err := core.Run(core.RunSpec{
			N: n, T: n - 1, Inputs: inputs, Seed: seed, Adversary: adversary.None{},
		})
		if err != nil {
			t.Fatal(err)
		}
		base += r0.HaltRounds

		sw := NewStepwise(n, seed)
		sw.Est.RolloutsPerAdversary = 10
		r1, err := core.Run(core.RunSpec{
			N: n, T: n - 1, Inputs: inputs, Seed: seed,
			Adversary: sw, MaxRounds: 60 * n,
		})
		if err != nil {
			t.Fatal(err)
		}
		forced += r1.HaltRounds
		if sw.StepsInspected == 0 {
			t.Fatal("stepwise adversary never inspected a state")
		}
	}
	if forced <= base {
		t.Fatalf("stepwise adversary did not extend executions: %d vs %d", forced, base)
	}
}

func TestStepwisePassiveWhenNonUnivalent(t *testing.T) {
	// A fresh half/half execution with a full budget classifies bivalent,
	// so the Section 3.4 rule says "pass all the messages": no crashes.
	const n = 12
	inputs := halfInputs(n)
	exec := newExec(t, n, n-1, inputs, 5)
	v, err := exec.StepPhaseA()
	if err != nil {
		t.Fatal(err)
	}
	sw := NewStepwise(n, 5)
	sw.Est.RolloutsPerAdversary = 16
	if plans := sw.Plan(v); len(plans) != 0 {
		t.Fatalf("stepwise attacked a bivalent round-1 state: %v", plans)
	}
	if err := exec.FinishRound(nil); err != nil {
		t.Fatal(err)
	}
}

func TestStepwiseBudgetRespected(t *testing.T) {
	const n = 8
	inputs := halfInputs(n)
	sw := NewStepwise(n, 1)
	sw.Est.RolloutsPerAdversary = 8
	res, err := core.Run(core.RunSpec{
		N: n, T: 2, Inputs: inputs, Seed: 1, Adversary: sw, MaxRounds: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes > 2 {
		t.Fatalf("crashes = %d exceed budget 2", res.Crashes)
	}
}

// TestStepwiseZeroPerRoundIsRoundBudget: PerRound 0 means
// core.RoundBudget(n), as for LowerBound, so a Stepwise literal with
// only Est set crashes exactly the processes NewStepwise's does.
func TestStepwiseZeroPerRoundIsRoundBudget(t *testing.T) {
	const n, seed = 10, 1
	run := func(sw *Stepwise) *sim.Result {
		sw.Est.RolloutsPerAdversary = 10
		res, err := core.Run(core.RunSpec{
			N: n, T: n - 1, Inputs: halfInputs(n), Seed: seed,
			Adversary: sw, MaxRounds: 60 * n,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(NewStepwise(n, seed))
	if want.Crashes == 0 {
		t.Fatal("NewStepwise crashed nobody; pick a seed where it acts")
	}
	got := run(&Stepwise{Est: NewEstimator(n, seed)})
	if got.Crashes != want.Crashes || got.HaltRounds != want.HaltRounds {
		t.Fatalf("Stepwise{PerRound: 0}: %d crashes, %d rounds; NewStepwise: %d crashes, %d rounds",
			got.Crashes, got.HaltRounds, want.Crashes, want.HaltRounds)
	}
}
