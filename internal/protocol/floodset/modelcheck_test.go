package floodset

import (
	"fmt"
	"reflect"
	"testing"

	"synran/internal/adversary"
	"synran/internal/sim"
	"synran/internal/wire"
)

// This file is an exhaustive small-n check of FloodSet and omitflood.
// For n = 2 and 3 it enumerates every input vector combined with every
// single fault plan — each (round, victim, delivery mask) as a crash,
// and for omitflood as an omission demotion too — and runs each plan on
// the object core and on the default core. The verdict comes from the
// test's own reference model of flooding (witnessed sets as plain
// integers, no engine or protocol code): every survivor must decide the
// value the model predicts and hold the witnessed set it predicts, the
// survivors must agree, validity must hold, every execution must halt at
// exactly rounds+1, and the two cores' Results must be identical.

// faultPlan is one point of the adversary's single-fault action space;
// the zero round means no fault.
type faultPlan struct {
	round, victim int
	deliver       []bool // receivers that still get the victim's round message
	omit          bool   // demote against the fault budget instead of crashing
}

func (f faultPlan) String() string {
	if f.round == 0 {
		return "no fault"
	}
	kind := "crash"
	if f.omit {
		kind = "omit"
	}
	return fmt.Sprintf("%s p%d in round %d delivering to %v", kind, f.victim, f.round, f.deliver)
}

// singleFaultPlans enumerates no fault plus every (round, victim,
// subset of the other receivers) for rounds 1..maxRound.
func singleFaultPlans(n, maxRound int, omit bool) []faultPlan {
	plans := []faultPlan{{}}
	for r := 1; r <= maxRound; r++ {
		for v := 0; v < n; v++ {
			for m := 0; m < 1<<n; m++ {
				if m&(1<<v) != 0 {
					continue
				}
				deliver := make([]bool, n)
				for j := range deliver {
					deliver[j] = m&(1<<j) != 0
				}
				plans = append(plans, faultPlan{round: r, victim: v, deliver: deliver, omit: omit})
			}
		}
	}
	return plans
}

// omitAt is an Omitter that demotes per one fixed plan.
type omitAt struct {
	round int
	plan  sim.CrashPlan
}

func (a *omitAt) Name() string                   { return "omit-at" }
func (a *omitAt) Clone() sim.Adversary           { c := *a; return &c }
func (a *omitAt) Plan(*sim.View) []sim.CrashPlan { return nil }
func (a *omitAt) Omit(v *sim.View) []sim.CrashPlan {
	if v.Round != a.round {
		return nil
	}
	return []sim.CrashPlan{a.plan}
}

func (f faultPlan) adversary(n int) sim.Adversary {
	if f.round == 0 {
		return adversary.None{}
	}
	mask := sim.NewBitSet(n)
	for j, d := range f.deliver {
		if d {
			mask.Set(j)
		}
	}
	plan := sim.CrashPlan{Victim: f.victim, Deliver: mask}
	if f.omit {
		return &omitAt{round: f.round, plan: plan}
	}
	return &adversary.Schedule{Plans: map[int][]sim.CrashPlan{f.round: {plan}}}
}

// referenceFlood is the model: witnessed sets as bit masks (bit v set =
// value v witnessed), flooded for rounds exchange rounds, the victim
// silent after its fault round and heard in that round only by its
// deliver set. It returns every process's final witnessed set.
func referenceFlood(inputs []int, rounds int, f faultPlan) []int {
	n := len(inputs)
	seen := make([]int, n)
	for i, x := range inputs {
		seen[i] = 1 << x
	}
	for r := 1; r <= rounds; r++ {
		next := append([]int(nil), seen...)
		for s := 0; s < n; s++ {
			if f.round != 0 && s == f.victim && r > f.round {
				continue // silenced for good
			}
			for j := 0; j < n; j++ {
				if j == s || (f.round == r && s == f.victim && !f.deliver[j]) {
					continue
				}
				next[j] |= seen[s]
			}
		}
		seen = next
	}
	return seen
}

func runCore(t *testing.T, engine string, inputs []int, rounds, tt, budget int, f faultPlan) (*sim.Result, *sim.Execution) {
	t.Helper()
	n := len(inputs)
	procs := make([]sim.Process, n)
	for i := range procs {
		p, err := NewProc(i, inputs[i], rounds)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
	}
	exec, err := sim.NewExecution(sim.Config{N: n, T: tt, Engine: engine, FaultBudget: budget}, procs, inputs, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(f.adversary(n))
	if err != nil {
		t.Fatalf("%s core, inputs %v, %v: %v", engine, inputs, f, err)
	}
	return res, exec
}

// checkPlan runs one plan on both cores and checks it against the model.
func checkPlan(t *testing.T, inputs []int, rounds, tt, budget int, f faultPlan) {
	t.Helper()
	n := len(inputs)
	want := referenceFlood(inputs, rounds, f)
	objRes, obj := runCore(t, sim.EngineObject, inputs, rounds, tt, budget, f)
	defRes, def := runCore(t, "", inputs, rounds, tt, budget, f)
	where := fmt.Sprintf("inputs %v, %v", inputs, f)
	if !reflect.DeepEqual(objRes, defRes) {
		t.Fatalf("%s: cores disagree:\nobject  %+v\ndefault %+v", where, objRes, defRes)
	}
	for core, e := range map[string]*sim.Execution{"object": obj, "default": def} {
		res := e.Result()
		if res.HaltRounds != rounds+1 || res.DecideRounds != rounds+1 {
			t.Fatalf("%s, %s core: decided after %d and halted after %d rounds, want %d",
				where, core, res.DecideRounds, res.HaltRounds, rounds+1)
		}
		decision := -1
		for i := 0; i < n; i++ {
			if f.round != 0 && i == f.victim {
				if res.Decided[i] {
					t.Fatalf("%s, %s core: faulty p%d reported as decided", where, core, i)
				}
				continue
			}
			got := e.Process(i).(*Proc)
			wantMask := int64(0)
			if want[i]&1 != 0 {
				wantMask |= wire.MaskZero
			}
			if want[i]&2 != 0 {
				wantMask |= wire.MaskOne
			}
			wantDecision := 0
			if want[i] == 2 {
				wantDecision = 1
			}
			if int64(got.s.mask) != wantMask || !res.Decided[i] || res.Decisions[i] != wantDecision {
				t.Fatalf("%s, %s core: p%d holds mask %#x deciding (%d, %v), model says mask %#x deciding %d",
					where, core, i, got.s.mask, res.Decisions[i], res.Decided[i], wantMask, wantDecision)
			}
			if decision == -1 {
				decision = wantDecision
			} else if decision != wantDecision {
				t.Fatalf("%s: AGREEMENT VIOLATED: survivors decide %v", where, res.Decisions)
			}
		}
		uniform := true
		for _, x := range inputs {
			uniform = uniform && x == inputs[0]
		}
		if uniform && decision != -1 && decision != inputs[0] {
			t.Fatalf("%s: VALIDITY VIOLATED: all inputs %d, survivors decide %d", where, inputs[0], decision)
		}
	}
}

// TestModelCheckSingleFault enumerates FloodSet (t+1 rounds, halting at
// t+2) under every single crash plan and omitflood (2t+1 rounds with
// FaultBudget = t, halting at 2t+2) under every single crash plan and
// every single omission plan, at n = 2 and 3 and every t in [1, n-1].
func TestModelCheckSingleFault(t *testing.T) {
	runs := 0
	for n := 2; n <= 3; n++ {
		for tt := 1; tt < n; tt++ {
			for m := 0; m < 1<<n; m++ {
				inputs := make([]int, n)
				for i := range inputs {
					inputs[i] = (m >> i) & 1
				}
				floodRounds := tt + 1
				for _, f := range singleFaultPlans(n, floodRounds+1, false) {
					checkPlan(t, inputs, floodRounds, tt, 0, f)
					runs++
				}
				omitRounds := 2*tt + 1
				plans := append(singleFaultPlans(n, omitRounds+1, false), singleFaultPlans(n, omitRounds+1, true)[1:]...)
				for _, f := range plans {
					checkPlan(t, inputs, omitRounds, tt, tt, f)
					runs++
				}
			}
		}
	}
	t.Logf("%d single-fault plans checked on both cores", runs)
}
