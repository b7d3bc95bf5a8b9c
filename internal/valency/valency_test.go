package valency

import (
	"testing"

	"synran/internal/adversary"
	"synran/internal/core"
	"synran/internal/sim"
)

func newExec(t *testing.T, n, tt int, inputs []int, seed uint64) *sim.Execution {
	t.Helper()
	procs, err := core.NewProcs(n, inputs, seed, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := sim.NewExecution(sim.Config{N: n, T: tt}, procs, inputs, seed)
	if err != nil {
		t.Fatal(err)
	}
	return exec
}

func halfInputs(n int) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = i % 2
	}
	return in
}

func uniformInputs(n, v int) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = v
	}
	return in
}

func TestClassifyUniform(t *testing.T) {
	// All-1 inputs with a crash-capable adversary: validity forces every
	// decision to 1 when no adversary intervenes, and even push0 cannot
	// make SynRan decide 0 on all-1 inputs (the one-side-bias rule).
	// The state must classify 1-valent (max near 1, min not below lo).
	const n = 12
	exec := newExec(t, n, n-1, uniformInputs(n, 1), 3)
	est, err := NewEstimator(n, 1).Classify(exec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if est.Class != OneValent {
		t.Fatalf("all-1 initial state classified %v (min=%v max=%v), want 1-valent",
			est.Class, est.MinP, est.MaxP)
	}

	// Symmetric: all-0 inputs are 0-valent.
	exec = newExec(t, n, n-1, uniformInputs(n, 0), 4)
	est, err = NewEstimator(n, 2).Classify(exec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if est.Class != ZeroValent {
		t.Fatalf("all-0 initial state classified %v (min=%v max=%v), want 0-valent",
			est.Class, est.MinP, est.MaxP)
	}
}

func TestClassifyMixedIsSwingable(t *testing.T) {
	// Half/half inputs with a full crash budget: push0 drives the
	// decision to 0 and push1 to 1, so min is near 0 and max near 1 —
	// the state is bivalent.
	const n = 12
	exec := newExec(t, n, n-1, halfInputs(n), 5)
	est, err := NewEstimator(n, 3).Classify(exec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if est.Class != Bivalent {
		t.Fatalf("half/half initial state classified %v (min=%v max=%v), want bivalent",
			est.Class, est.MinP, est.MaxP)
	}
	if est.MinP > 0.2 || est.MaxP < 0.8 {
		t.Fatalf("swing estimates too weak: min=%v max=%v", est.MinP, est.MaxP)
	}
}

func TestClassifyNoBudgetUniformStates(t *testing.T) {
	// With no crash budget the adversary pool is powerless: min == max,
	// so mixed-input states are never bivalent.
	const n = 12
	exec := newExec(t, n, 0, uniformInputs(n, 1), 6)
	est, err := NewEstimator(n, 4).Classify(exec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if est.Class != OneValent {
		t.Fatalf("t=0 all-1 state classified %v, want 1-valent", est.Class)
	}
	if est.MinP != est.MaxP {
		t.Fatalf("t=0 rollouts disagree across adversaries: min=%v max=%v", est.MinP, est.MaxP)
	}
}

func TestClassifyDoesNotMutateExecution(t *testing.T) {
	const n = 8
	exec := newExec(t, n, n-1, halfInputs(n), 7)
	if _, err := NewEstimator(n, 5).Classify(exec, 0); err != nil {
		t.Fatal(err)
	}
	if exec.Round() != 0 {
		t.Fatalf("classification advanced the execution to round %d", exec.Round())
	}
	for i := 0; i < n; i++ {
		if !exec.Alive(i) {
			t.Fatalf("classification crashed process %d in the original execution", i)
		}
	}
	// The execution still runs normally afterwards.
	res, err := exec.Run(adversary.None{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreement {
		t.Fatal("post-classification run violated agreement")
	}
}

func TestClassString(t *testing.T) {
	names := map[Class]string{
		Bivalent:   "bivalent",
		ZeroValent: "0-valent",
		OneValent:  "1-valent",
		NullValent: "null-valent",
	}
	for c, want := range names {
		if c.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
	if !ZeroValent.Univalent() || !OneValent.Univalent() {
		t.Fatal("0/1-valent must report univalent")
	}
	if Bivalent.Univalent() || NullValent.Univalent() {
		t.Fatal("bivalent/null-valent must not report univalent")
	}
}

func TestEmptyPoolRejected(t *testing.T) {
	const n = 4
	exec := newExec(t, n, 1, halfInputs(n), 8)
	e := &Estimator{}
	if _, err := e.Classify(exec, 0); err == nil {
		t.Fatal("empty pool must be rejected")
	}
}

func TestFindInitialState(t *testing.T) {
	const n = 10
	factory := func(inputs []int, seed uint64) ([]sim.Process, error) {
		return core.NewProcs(n, inputs, seed, core.Options{})
	}
	est := NewEstimator(n, 9)
	est.RolloutsPerAdversary = 16
	st, err := FindInitialState(n, n-1, factory, est, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Inputs) != n {
		t.Fatalf("initial state inputs length %d", len(st.Inputs))
	}
	if st.Class == ZeroValent && st.CrashFirst < 0 {
		t.Fatal("a univalent initial state must carry a round-1 crash")
	}
	if (st.Class == Bivalent || st.Class == NullValent) && st.CrashFirst != -1 {
		t.Fatal("a non-univalent initial state needs no crash")
	}
}

func TestLowerBoundAdversaryForcesExtraRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("lookahead adversary is expensive")
	}
	const n = 10
	inputs := halfInputs(n)

	baselineRounds := 0
	lbRounds := 0
	const trials = 5
	for seed := uint64(0); seed < trials; seed++ {
		exec := newExec(t, n, n-1, inputs, seed)
		res, err := exec.Run(adversary.None{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Agreement || !res.Validity {
			t.Fatal("baseline run unsafe")
		}
		baselineRounds += res.HaltRounds

		exec = newExec(t, n, n-1, inputs, seed)
		lb := NewLowerBound(n, seed)
		lb.Est.RolloutsPerAdversary = 12
		res, err = exec.Run(lb)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Agreement || !res.Validity {
			t.Fatalf("lower-bound adversary broke safety: %+v", res)
		}
		lbRounds += res.HaltRounds
	}
	if lbRounds <= baselineRounds {
		t.Fatalf("valency adversary did not extend executions: %d vs baseline %d",
			lbRounds, baselineRounds)
	}
}

func TestLowerBoundCloneIndependent(t *testing.T) {
	lb := NewLowerBound(8, 1)
	c := lb.Clone().(*LowerBound)
	if c == lb {
		t.Fatal("clone returned the same pointer")
	}
	c.RoundsPlanned = 99
	if lb.RoundsPlanned == 99 {
		t.Fatal("clone shares counters")
	}
	// The estimator must be deep-copied: a shared one interleaves the
	// clone's rollout-counter draws with the original's, so the clone's
	// look-ahead plans would depend on how far the original has run.
	if c.Est == lb.Est {
		t.Fatal("clone shares the Estimator")
	}
	c.Est.counter = 777
	if lb.Est.counter == 777 {
		t.Fatal("clone shares the Estimator counter")
	}
	sw := NewStepwise(8, 1)
	if sw.Clone().(*Stepwise).Est == sw.Est {
		t.Fatal("stepwise clone shares the Estimator")
	}
}

func TestEstimatorCloneKeepsCounterPosition(t *testing.T) {
	e := NewEstimator(6, 3)
	e.counter = 42
	c := e.Clone()
	if c.counter != 42 {
		t.Fatalf("clone counter = %d, want 42", c.counter)
	}
	if c.arena != nil {
		t.Fatal("clone must not share or carry arenas")
	}
	c.counter = 100
	if e.counter != 42 {
		t.Fatal("clone counter writes leak into the original")
	}
}

func TestAdversaryNames(t *testing.T) {
	if NewLowerBound(8, 1).Name() != "valency-lowerbound" {
		t.Fatal("lowerbound name")
	}
	sw := NewStepwise(8, 1)
	if sw.Name() != "valency-stepwise" {
		t.Fatal("stepwise name")
	}
	if sw.Clone().Name() != sw.Name() {
		t.Fatal("stepwise clone name")
	}
}
