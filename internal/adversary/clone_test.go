package adversary_test

// Fork-mutation aliasing guard: for every adversary family the facade
// can build, cloning mid-run and driving the clone to completion must
// not perturb the original's continuation. This is the shared-state bug
// class behind the PR-5 Estimator aliasing fix — a Clone that shallow-
// copies a scratch slice, rng, or history buffer passes the conformance
// fork lane's digest check only by luck, because there the base run
// finishes before the clone moves. Here the clone runs FIRST, on a
// diverging execution, and the original's continuation is then compared
// field-by-field against a never-cloned reference run.

import (
	"errors"
	"reflect"
	"testing"

	"synran"
	"synran/internal/sim"
	"synran/internal/valency"
	"synran/internal/workload"
)

const (
	cloneN    = 9
	cloneT    = 3
	cloneSeed = 42
	cloneSnap = 2 // rounds driven before the fork
)

// buildRun constructs one protocol+adversary pair and its execution.
// Look-ahead adversaries get the conformance grid's reduced rollout
// budget; the test checks aliasing, not lower-bound quality.
func buildRun(t *testing.T, advName string) (*sim.Execution, sim.Adversary) {
	t.Helper()
	inputs, err := workload.Named("half", cloneN, cloneSeed)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	procs, err := synran.NewProtocol(synran.ProtocolSynRan, cloneN, cloneT, inputs, cloneSeed)
	if err != nil {
		t.Fatalf("protocol: %v", err)
	}
	adv, err := synran.NewAdversaryBudget(advName, cloneN, cloneT, cloneT, cloneSeed)
	if err != nil {
		t.Fatalf("adversary %q: %v", advName, err)
	}
	switch a := adv.(type) {
	case *valency.LowerBound:
		a.Est.RolloutsPerAdversary = 6
	case *valency.Stepwise:
		a.Est.RolloutsPerAdversary = 6
	}
	cfg := sim.Config{N: cloneN, T: cloneT, FaultBudget: cloneT}
	exec, err := sim.NewExecution(cfg, procs, inputs, cloneSeed)
	if err != nil {
		t.Fatalf("execution: %v", err)
	}
	return exec, adv
}

// drive advances exec through exactly the rounds Run would, until
// round snap or termination.
func drive(t *testing.T, exec *sim.Execution, adv sim.Adversary, snap int) {
	t.Helper()
	for exec.Round() < snap && !exec.Done() {
		if err := exec.Step(adv); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
}

// finish runs exec to completion, treating a MaxRounds timeout as a
// comparable outcome exactly like the conformance lanes do.
func finish(t *testing.T, exec *sim.Execution, adv sim.Adversary) *sim.Result {
	t.Helper()
	res, err := exec.Run(adv)
	if res == nil && errors.Is(err, sim.ErrMaxRounds) {
		res = exec.Result()
		res.Partial = true
		return res
	}
	if err != nil && !errors.Is(err, sim.ErrMaxRounds) {
		t.Fatalf("run: %v", err)
	}
	return res
}

// TestCloneDoesNotAliasOriginal covers every facade-buildable adversary,
// including the omission-* and late-* families: after the fork, the
// clone is driven to completion on its own diverging execution before
// the original takes another step. Any state shared between the two —
// a reused plan/mask slice, an aliased rng, the Late ring buffer, an
// Estimator cache — shows up as a field-level diff against the
// never-cloned reference run.
func TestCloneDoesNotAliasOriginal(t *testing.T) {
	for _, name := range synran.Adversaries() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			// Reference: one uninterrupted run, never cloned.
			refExec, refAdv := buildRun(t, name)
			refRes := finish(t, refExec, refAdv)

			// Subject: identical build, forked at the snap round.
			exec, adv := buildRun(t, name)
			drive(t, exec, adv, cloneSnap)
			cloneExec := exec.Clone()
			cloneAdv := adv.Clone()

			// Mutate the clone pair first: run it all the way down. Its
			// execution is a genuine fork, so from here the clone's view
			// sequence (and therefore its internal state) diverges from
			// anything the original will see.
			finish(t, cloneExec, cloneAdv)

			// Now continue the original. If Clone aliased anything, the
			// clone's full run above corrupted it.
			res := finish(t, exec, adv)
			if !reflect.DeepEqual(refRes, res) {
				t.Errorf("original diverged after its clone ran:\n  reference: %+v\n  original:  %+v", refRes, res)
			}
		})
	}
}
