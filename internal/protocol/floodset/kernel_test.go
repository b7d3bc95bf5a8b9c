package floodset

import (
	"reflect"
	"testing"

	"synran/internal/adversary"
	"synran/internal/sim"
	"synran/internal/trace"
	"synran/internal/wire"
)

// wrapped is a non-FloodSet process that behaves exactly like the *Proc
// it embeds (BuildKernel included, by promotion), so a vector holding
// one must fall back to the object core.
type wrapped struct{ *Proc }

func (w wrapped) Clone() sim.Process { return wrapped{w.Proc.Clone().(*Proc)} }

// vectorOf builds a FloodSet vector where process i floods for
// rounds[i] rounds; the entries listed in foreign are wrapped.
func vectorOf(t *testing.T, inputs, rounds []int, foreign ...int) []sim.Process {
	t.Helper()
	procs := make([]sim.Process, len(inputs))
	for i := range procs {
		p, err := NewProc(i, inputs[i], rounds[i])
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
	}
	for _, i := range foreign {
		procs[i] = wrapped{procs[i].(*Proc)}
	}
	return procs
}

func TestBuildKernelAcceptsOnlyUniformFloodSetVectors(t *testing.T) {
	inputs := []int{0, 1, 1, 0}
	build := func(procs []sim.Process) sim.TallyKernel {
		return procs[0].(sim.KernelBuilder).BuildKernel(procs)
	}
	if build(vectorOf(t, inputs, []int{3, 3, 3, 3})) == nil {
		t.Fatal("a uniform FloodSet vector must be kernel-capable")
	}
	for name, procs := range map[string][]sim.Process{
		"mixed rounds":    vectorOf(t, inputs, []int{3, 3, 4, 3}),
		"foreign first":   vectorOf(t, inputs, []int{3, 3, 3, 3}, 0),
		"foreign process": vectorOf(t, inputs, []int{3, 3, 3, 3}, 2),
	} {
		if build(procs) != nil {
			t.Errorf("%s: BuildKernel adopted the vector, want nil", name)
		}
	}
}

// lateForger is the Equivocator switched on from round from, so the
// execution leaves the columnar core mid-run rather than in round 1.
type lateForger struct {
	adversary.Equivocator
	from int
}

func (a *lateForger) Clone() sim.Adversary { c := *a; return &c }

func (a *lateForger) Forge(v *sim.View) []sim.Forgery {
	if v.Round < a.from {
		return nil
	}
	return a.Equivocator.Forge(v)
}

// TestDefaultCoreTracksObjectCore drives the same case on the default
// core and the object core in lockstep. After every Step both must
// have recorded the same trace (each broadcast payload, crash, decision
// and halt so far) and hold the same process state, field by field,
// and the finished Results must be identical — including the vectors
// the kernel rejects and runs that leave the columnar core through a
// Forger.
func TestDefaultCoreTracksObjectCore(t *testing.T) {
	const n, tt = 6, 2
	inputs := []int{1, 0, 1, 1, 0, 1}
	uniform := []int{tt + 1, tt + 1, tt + 1, tt + 1, tt + 1, tt + 1}
	tolerant := []int{2*tt + 1, 2*tt + 1, 2*tt + 1, 2*tt + 1, 2*tt + 1, 2*tt + 1}
	cases := []struct {
		name    string
		rounds  []int
		foreign []int // entries wrapped as non-FloodSet processes
		budget  int
		adv     func() sim.Adversary
	}{
		{name: "no faults", rounds: uniform,
			adv: func() sim.Adversary { return adversary.None{} }},
		{name: "random crashes", rounds: uniform,
			adv: func() sim.Adversary { return &adversary.Random{PerRound: 0.9, MaxPerRound: 2} }},
		{name: "omitflood under omission-split", rounds: tolerant, budget: tt,
			adv: func() sim.Adversary { return &adversary.Omission{Budget: tt} }},
		{name: "omitflood under omission-random", rounds: tolerant, budget: tt,
			adv: func() sim.Adversary { return &adversary.Omission{Mode: "random", Budget: tt} }},
		{name: "mixed rounds", rounds: []int{3, 4, 3, 3, 5, 3},
			adv: func() sim.Adversary { return &adversary.Random{PerRound: 0.9} }},
		{name: "foreign process", rounds: uniform, foreign: []int{3},
			adv: func() sim.Adversary { return &adversary.Random{PerRound: 0.9} }},
		{name: "equivocator from round 1", rounds: uniform,
			adv: func() sim.Adversary { return &adversary.Equivocator{Corruptions: 1} }},
		{name: "equivocator from round 3", rounds: tolerant,
			adv: func() sim.Adversary { return &lateForger{Equivocator: adversary.Equivocator{Corruptions: tt}, from: 3} }},
	}
	state := func(p sim.Process) Proc {
		if w, ok := p.(wrapped); ok {
			return *w.Proc
		}
		return *p.(*Proc)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(engine string) (*sim.Execution, sim.Adversary, *trace.Recorder) {
				rec := trace.NewRecorder(n, tt, 7)
				cfg := sim.Config{N: n, T: tt, Engine: engine, FaultBudget: c.budget, Observer: rec}
				e, err := sim.NewExecution(cfg, vectorOf(t, inputs, c.rounds, c.foreign...), inputs, 7)
				if err != nil {
					t.Fatal(err)
				}
				return e, c.adv(), rec
			}
			def, defAdv, defRec := run("")
			obj, objAdv, objRec := run(sim.EngineObject)
			for !obj.Done() {
				if def.Done() {
					t.Fatalf("default core finished after %d rounds, object core did not", def.Round())
				}
				if err := def.Step(defAdv); err != nil {
					t.Fatal(err)
				}
				if err := obj.Step(objAdv); err != nil {
					t.Fatal(err)
				}
				if i, dv, ov := trace.FirstDiff(defRec.Log(), objRec.Log()); i >= 0 {
					t.Fatalf("after round %d, trace event %d: default %s, object %s", obj.Round(), i, dv, ov)
				}
				for i := 0; i < n; i++ {
					if dp, op := state(def.Process(i)), state(obj.Process(i)); dp != op {
						t.Fatalf("after round %d process %d: default %+v, object %+v", obj.Round(), i, dp, op)
					}
				}
			}
			if !def.Done() {
				t.Fatalf("object core finished after %d rounds, default core did not", obj.Round())
			}
			if dr, or := def.Result(), obj.Result(); !reflect.DeepEqual(dr, or) {
				t.Fatalf("results differ:\ndefault %+v\nobject  %+v", dr, or)
			}
		})
	}
}

// TestKernelRoundIgnoresRoundOneTally pins the TallyKernel contract
// that round 1 reads no tally (its inbox is empty): whatever the
// columns hold, the kernel's first round is Proc.Round(1, nil).
func TestKernelRoundIgnoresRoundOneTally(t *testing.T) {
	inputs := []int{0, 1, 1}
	procs := vectorOf(t, inputs, []int{2, 2, 2})
	k := procs[0].(*Proc).BuildKernel(procs)
	cols := &sim.TallyColumns{
		Ones: []int32{1, 1, 1}, Zeros: []int32{1, 1, 1}, Count: []int32{2, 2, 2},
		MaskZero: []int32{1, 1, 1}, MaskOne: []int32{1, 1, 1},
	}
	payloads, sending := make([]int64, 3), make([]bool, 3)
	k.KernelRound(1, []bool{true, true, true}, cols, payloads, sending)
	for i, q := range procs {
		p := q.(*Proc)
		want, wantSend := p.Round(1, nil)
		if payloads[i] != want || sending[i] != wantSend {
			t.Errorf("process %d: kernel sends (%v, %#x), Round (%v, %#x)", i, sending[i], payloads[i], wantSend, want)
		}
		synced := *p
		k.KernelSync(i, &synced)
		if synced != *p {
			t.Errorf("process %d: kernel state %+v, Round state %+v", i, synced, *p)
		}
	}
}

// TestKernelClassMatchesRoundFold checks KernelClass against what
// Round does with a one-message inbox, for every payload bit pattern
// the wire layout defines and both inputs.
func TestKernelClassMatchesRoundFold(t *testing.T) {
	for payload := int64(0); payload < 2*wire.BeaconTag; payload++ {
		for input := 0; input <= 1; input++ {
			p, err := NewProc(0, input, 3)
			if err != nil {
				t.Fatal(err)
			}
			kp := *p
			k := kp.BuildKernel([]sim.Process{&kp})
			p.Round(1, nil)
			want, _ := p.Round(2, []sim.Recv{{From: 1, Payload: payload}})

			_, mz, mo := k.KernelClass(payload)
			cols := &sim.TallyColumns{Ones: []int32{0}, Zeros: []int32{1}, Count: []int32{1},
				MaskZero: []int32{0}, MaskOne: []int32{0}}
			if mz {
				cols.MaskZero[0] = 1
			}
			if mo {
				cols.MaskOne[0] = 1
			}
			payloads, sending := make([]int64, 1), make([]bool, 1)
			k.KernelRound(1, []bool{true}, cols, payloads, sending)
			k.KernelRound(2, []bool{true}, cols, payloads, sending)
			if payloads[0] != want {
				t.Errorf("payload %#x input %d: kernel floods %#x, Round %#x", payload, input, payloads[0], want)
			}
		}
	}
}
