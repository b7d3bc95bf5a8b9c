package core

import (
	"reflect"
	"testing"

	"synran/internal/adversary"
	"synran/internal/rng"
	"synran/internal/sim"
	"synran/internal/trace"
	"synran/internal/workload"
)

// TestKernelRoundSparseActive pins KernelRound's contract on a sparse
// active set spread over three words: every active process produces
// Proc.Round's payload and sending bit (the stale bit it starts from is
// overwritten), and every inactive process's payload and clear sending
// bit are left untouched. With empty inboxes the active processes run
// through the deterministic stage until they halt and go quiet.
func TestKernelRoundSparseActive(t *testing.T) {
	const n, untouched = 130, -7
	inputs := workload.HalfHalf(n)
	procs, err := NewProcs(n, inputs, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]sim.Process, n)
	for i, p := range procs {
		objs[i] = p.Clone()
	}
	k := procs[0].(*Proc).BuildKernel(procs)
	active, sending := sim.NewBitSet(n), sim.NewBitSet(n)
	payloads := make([]int64, n)
	for i := range payloads {
		payloads[i] = untouched
		if i%9 == 0 || i == 63 || i == 64 || i == n-1 {
			active.Set(i)
			if i%2 == 0 {
				sending.Set(i) // stale from an earlier round
			}
		}
	}
	cols := &sim.TallyColumns{Ones: make([]int32, n), Zeros: make([]int32, n), Count: make([]int32, n),
		MaskZero: make([]int32, n), MaskOne: make([]int32, n)} // all zero: the empty inbox
	quiet := false
	for r := 1; r <= FloodRounds(n)+3; r++ {
		k.KernelRound(r, active, cols, payloads, sending)
		for i := 0; i < n; i++ {
			if !active.Get(i) {
				if payloads[i] != untouched || sending.Get(i) {
					t.Fatalf("round %d: inactive process %d: payload %d sending %v, want untouched and clear",
						r, i, payloads[i], sending.Get(i))
				}
				continue
			}
			want, wantSend := objs[i].Round(r, nil)
			if payloads[i] != want || sending.Get(i) != wantSend {
				t.Fatalf("round %d: process %d: kernel (%#x, %v), Round (%#x, %v)", r, i, payloads[i], sending.Get(i), want, wantSend)
			}
			quiet = quiet || !wantSend
		}
	}
	if !quiet {
		t.Fatal("no active process went quiet: the stale sending bits were never overwritten with false")
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

// procState is the part of a Proc both cores must agree on. The
// history counts by its length and its last three entries, the only
// ones the protocol reads: KernelSync pads older entries with n.
type procState struct {
	b, st, decision, floodLeft int
	decided, hasDecided        bool
	floodMask                  int64
	histLen                    int
	h1, h2, h3                 int32
	coin                       rng.Stream
}

func stateOf(p sim.Process) procState {
	q := p.(*Proc)
	h1, h2, h3 := histWindow(q.nHist, q.n)
	return procState{
		b: q.b, st: int(q.st), decision: q.decision, floodLeft: q.floodLeft,
		decided: q.decided, hasDecided: q.hasDecided, floodMask: q.floodMask,
		histLen: len(q.nHist), h1: h1, h2: h2, h3: h3, coin: q.rng,
	}
}

// TestDefaultCoreTracksObjectCore drives SynRan on the default core and
// the object core in lockstep, up to a round cap. After every Step both
// must have recorded the same trace (each broadcast payload, crash,
// decision and halt so far) and every Process(i) must hold the same
// state, coin stream included; finished runs must have identical
// Results. The Forger cases take the default core off its kernel, in
// round 1 or mid-run, through leaveTallyMode and KernelSync.
func TestDefaultCoreTracksObjectCore(t *testing.T) {
	const n, tt, maxRounds = 16, 15, 60
	inputs := inputsHalf(n)
	cases := []struct {
		name string
		adv  func() sim.Adversary
	}{
		{"none", func() sim.Adversary { return adversary.None{} }},
		{"splitvote", func() sim.Adversary { return &adversary.SplitVote{} }},
		{"random", func() sim.Adversary { return &adversary.Random{PerRound: 0.5, MaxPerRound: 3} }},
		{"equivocator from round 1", func() sim.Adversary { return &adversary.Equivocator{Corruptions: 2} }},
		{"equivocator from round 3", func() sim.Adversary {
			return &lateForger{Equivocator: adversary.Equivocator{Corruptions: 3}, from: 3}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(engine string) (*sim.Execution, sim.Adversary, *trace.Recorder) {
				rec := trace.NewRecorder(n, tt, 7)
				procs, err := NewProcs(n, inputs, 7, Options{})
				if err != nil {
					t.Fatal(err)
				}
				e, err := sim.NewExecution(sim.Config{N: n, T: tt, Engine: engine, Observer: rec}, procs, inputs, 7)
				if err != nil {
					t.Fatal(err)
				}
				return e, c.adv(), rec
			}
			def, defAdv, defRec := run("")
			obj, objAdv, objRec := run(sim.EngineObject)
			for obj.Round() < maxRounds && !obj.Done() {
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
					if ds, os := stateOf(def.Process(i)), stateOf(obj.Process(i)); ds != os {
						t.Fatalf("after round %d process %d: default %+v, object %+v", obj.Round(), i, ds, os)
					}
				}
			}
			if def.Done() != obj.Done() {
				t.Fatalf("after round %d: default core done %v, object core done %v", obj.Round(), def.Done(), obj.Done())
			}
			if obj.Done() {
				if dr, or := def.Result(), obj.Result(); !reflect.DeepEqual(dr, or) {
					t.Fatalf("results differ:\ndefault %+v\nobject  %+v", dr, or)
				}
			}
		})
	}
}
