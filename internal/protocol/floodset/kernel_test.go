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
// Forger. A case whose vector NewKernel or NewKernelTolerant can build
// (kernel set) runs the default core a second time from that kernel,
// with no Proc objects, against the same object core.
func TestDefaultCoreTracksObjectCore(t *testing.T) {
	const n, tt = 6, 2
	inputs := []int{1, 0, 1, 1, 0, 1}
	uniform := []int{tt + 1, tt + 1, tt + 1, tt + 1, tt + 1, tt + 1}
	tolerant := []int{2*tt + 1, 2*tt + 1, 2*tt + 1, 2*tt + 1, 2*tt + 1, 2*tt + 1}
	floodset := func() (sim.TallyKernel, error) { return NewKernel(n, tt, inputs) }
	omitflood := func() (sim.TallyKernel, error) { return NewKernelTolerant(n, tt, tt, inputs) }
	cases := []struct {
		name    string
		rounds  []int
		foreign []int // entries wrapped as non-FloodSet processes
		kernel  func() (sim.TallyKernel, error)
		budget  int
		adv     func() sim.Adversary
	}{
		{name: "no faults", rounds: uniform, kernel: floodset,
			adv: func() sim.Adversary { return adversary.None{} }},
		{name: "splitvote", rounds: uniform, kernel: floodset,
			adv: func() sim.Adversary { return &adversary.SplitVote{} }},
		{name: "random crashes", rounds: uniform, kernel: floodset,
			adv: func() sim.Adversary { return &adversary.Random{PerRound: 0.9, MaxPerRound: 2} }},
		{name: "omitflood under omission-split", rounds: tolerant, kernel: omitflood, budget: tt,
			adv: func() sim.Adversary { return &adversary.Omission{Budget: tt} }},
		{name: "omitflood under omission-random", rounds: tolerant, kernel: omitflood, budget: tt,
			adv: func() sim.Adversary { return &adversary.Omission{Mode: "random", Budget: tt} }},
		{name: "mixed rounds", rounds: []int{3, 4, 3, 3, 5, 3},
			adv: func() sim.Adversary { return &adversary.Random{PerRound: 0.9} }},
		{name: "foreign process", rounds: uniform, foreign: []int{3},
			adv: func() sim.Adversary { return &adversary.Random{PerRound: 0.9} }},
		{name: "equivocator from round 1", rounds: uniform, kernel: floodset,
			adv: func() sim.Adversary { return &adversary.Equivocator{Corruptions: 1} }},
		{name: "equivocator from round 3", rounds: tolerant, kernel: omitflood,
			adv: func() sim.Adversary { return &lateForger{Equivocator: adversary.Equivocator{Corruptions: tt}, from: 3} }},
	}
	state := func(p sim.Process) Proc {
		if w, ok := p.(wrapped); ok {
			return *w.Proc
		}
		return *p.(*Proc)
	}
	type lane struct {
		name string
		e    *sim.Execution
		adv  sim.Adversary
		rec  *trace.Recorder
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			newLane := func(name, engine string, kernel func() (sim.TallyKernel, error)) *lane {
				rec := trace.NewRecorder(n, tt, 7)
				cfg := sim.Config{N: n, T: tt, Engine: engine, FaultBudget: c.budget, Observer: rec}
				var e *sim.Execution
				var err error
				if kernel != nil {
					var k sim.TallyKernel
					if k, err = kernel(); err == nil {
						e, err = sim.NewKernelExecution(cfg, k, inputs, 7)
					}
				} else {
					e, err = sim.NewExecution(cfg, vectorOf(t, inputs, c.rounds, c.foreign...), inputs, 7)
				}
				if err != nil {
					t.Fatal(err)
				}
				return &lane{name, e, c.adv(), rec}
			}
			obj := newLane("object", sim.EngineObject, nil)
			defs := []*lane{newLane("adopted", "", nil)}
			if c.kernel != nil {
				defs = append(defs, newLane("constructed", "", c.kernel))
			}
			for !obj.e.Done() {
				if err := obj.e.Step(obj.adv); err != nil {
					t.Fatal(err)
				}
				for _, d := range defs {
					if d.e.Done() {
						t.Fatalf("%s default core finished after %d rounds, object core did not", d.name, d.e.Round())
					}
					if err := d.e.Step(d.adv); err != nil {
						t.Fatal(err)
					}
					if i, dv, ov := trace.FirstDiff(d.rec.Log(), obj.rec.Log()); i >= 0 {
						t.Fatalf("%s: after round %d, trace event %d: default %s, object %s", d.name, obj.e.Round(), i, dv, ov)
					}
					for i := 0; i < n; i++ {
						if dp, op := state(d.e.Process(i)), state(obj.e.Process(i)); dp != op {
							t.Fatalf("%s: after round %d process %d: default %+v, object %+v", d.name, obj.e.Round(), i, dp, op)
						}
					}
				}
			}
			for _, d := range defs {
				if !d.e.Done() {
					t.Fatalf("%s: object core finished after %d rounds, default core did not", d.name, obj.e.Round())
				}
				if dr, or := d.e.Result(), obj.e.Result(); !reflect.DeepEqual(dr, or) {
					t.Fatalf("%s: results differ:\ndefault %+v\nobject  %+v", d.name, dr, or)
				}
			}
		})
	}
}

// TestNewKernelBuildsNewProcsVector pins each kernel constructor to its
// process constructor: the kernel's Procs equal the vector's field for
// field, and both reject the same inputs with the same error.
func TestNewKernelBuildsNewProcsVector(t *testing.T) {
	inputs := []int{1, 0, 0, 1, 1}
	pairs := map[string]struct {
		procs  func(in []int) ([]sim.Process, error)
		kernel func(in []int) (sim.TallyKernel, error)
	}{
		"floodset": {func(in []int) ([]sim.Process, error) { return NewProcs(5, 2, in) },
			func(in []int) (sim.TallyKernel, error) { return NewKernel(5, 2, in) }},
		"omitflood": {func(in []int) ([]sim.Process, error) { return NewProcsTolerant(5, 2, 2, in) },
			func(in []int) (sim.TallyKernel, error) { return NewKernelTolerant(5, 2, 2, in) }},
		"negative extra": {func(in []int) ([]sim.Process, error) { return NewProcsTolerant(5, 2, -1, in) },
			func(in []int) (sim.TallyKernel, error) { return NewKernelTolerant(5, 2, -1, in) }},
	}
	for name, c := range pairs {
		for _, in := range [][]int{inputs, inputs[:4], {1, 0, 2, 1, 1}} {
			want, perr := c.procs(in)
			k, kerr := c.kernel(in)
			if perr != nil || kerr != nil {
				if perr == nil || kerr == nil || perr.Error() != kerr.Error() || k != nil {
					t.Errorf("%s, inputs %v: process constructor error %v, kernel constructor (%v, %v)", name, in, perr, k, kerr)
				}
				continue
			}
			if got := k.KernelProcs(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, inputs %v: the kernel's vector differs from the process constructor's", name, in)
			}
		}
	}
}

// TestKernelRunsDrawNoCoins pins FloodSet's sim.CoinCounter answer: a
// reseeded columnar execution under a deterministic adversary has drawn
// nothing random when it ends, so each look-ahead future of such a pool
// member is simulated once.
func TestKernelRunsDrawNoCoins(t *testing.T) {
	const n, tt = 9, 4
	inputs := []int{1, 0, 0, 1, 1, 0, 1, 0, 1}
	k, err := NewKernel(n, tt, inputs)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.NewKernelExecution(sim.Config{N: n, T: tt}, k, inputs, 5)
	if err != nil {
		t.Fatal(err)
	}
	e.ReseedProcesses(17)
	if err := e.Drive(&adversary.SplitVote{}); err != nil {
		t.Fatal(err)
	}
	if e.DrewSinceReseed() {
		t.Fatal("a FloodSet run under SplitVote drew randomness after its reseed")
	}
}

// TestNewKernelAllocationsFlat pins both columnar constructors: the
// same allocations at n = 64 as at n = 4096.
func TestNewKernelAllocationsFlat(t *testing.T) {
	allocs := func(n int, tolerant bool) float64 {
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = i & 1
		}
		return testing.AllocsPerRun(10, func() {
			var err error
			if tolerant {
				_, err = NewKernelTolerant(n, n/2, n/2, inputs)
			} else {
				_, err = NewKernel(n, n-1, inputs)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, tolerant := range []bool{false, true} {
		if small, large := allocs(64, tolerant), allocs(4096, tolerant); large != small {
			t.Errorf("tolerant=%v: %.0f allocations at n = 64 and %.0f at n = 4096, want equal", tolerant, small, large)
		}
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
	payloads, sending, stopped, active := make([]int64, 3), sim.NewBitSet(3), sim.NewBitSet(3), sim.NewBitSet(3)
	active.Fill()
	k.KernelRound(1, active, cols, payloads, sending, stopped)
	for i, q := range procs {
		p := q.(*Proc)
		want, wantSend := p.Round(1, nil)
		if payloads[i] != want || sending.Get(i) != wantSend {
			t.Errorf("process %d: kernel sends (%v, %#x), Round (%v, %#x)", i, sending.Get(i), payloads[i], wantSend, want)
		}
		if got := k.KernelProcess(i).(*Proc); *got != *p {
			t.Errorf("process %d: kernel state %+v, Round state %+v", i, *got, *p)
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
			payloads, sending, stopped, active := make([]int64, 1), sim.NewBitSet(1), sim.NewBitSet(1), sim.NewBitSet(1)
			active.Set(0)
			k.KernelRound(1, active, cols, payloads, sending, stopped)
			k.KernelRound(2, active, cols, payloads, sending, stopped)
			if payloads[0] != want {
				t.Errorf("payload %#x input %d: kernel floods %#x, Round %#x", payload, input, payloads[0], want)
			}
		}
	}
}

// TestKernelRoundSparseActive pins KernelRound's contract on a sparse
// active set spread over three words: every active process produces
// Proc.Round's payload, sending bit and stopped bit (the stale bits it
// starts from are overwritten), and every inactive process's payload and
// clear bits are left untouched, through the round it decides in.
func TestKernelRoundSparseActive(t *testing.T) {
	const n, rounds, untouched = 130, 2, -7
	inputs, rs := make([]int, n), make([]int, n)
	for i := range inputs {
		inputs[i], rs[i] = i%3&1, rounds
	}
	procs := vectorOf(t, inputs, rs)
	objs := make([]sim.Process, n)
	for i, p := range procs {
		objs[i] = p.Clone()
	}
	k := procs[0].(*Proc).BuildKernel(procs)
	active, sending, stopped := sim.NewBitSet(n), sim.NewBitSet(n), sim.NewBitSet(n)
	payloads := make([]int64, n)
	for i := range payloads {
		payloads[i] = untouched
		if i%9 == 0 || i == 63 || i == 64 || i == n-1 {
			active.Set(i)
			if i%2 == 0 {
				sending.Set(i) // stale from an earlier round
				stopped.Set(i)
			}
		}
	}
	cols := &sim.TallyColumns{Ones: make([]int32, n), Zeros: make([]int32, n), Count: make([]int32, n),
		MaskZero: make([]int32, n), MaskOne: make([]int32, n)} // all zero: the empty inbox
	for r := 1; r <= rounds+1; r++ {
		k.KernelRound(r, active, cols, payloads, sending, stopped)
		for i := 0; i < n; i++ {
			if !active.Get(i) {
				if payloads[i] != untouched || sending.Get(i) || stopped.Get(i) {
					t.Fatalf("round %d: inactive process %d: payload %d sending %v stopped %v, want untouched and clear",
						r, i, payloads[i], sending.Get(i), stopped.Get(i))
				}
				continue
			}
			want, wantSend := objs[i].Round(r, nil)
			if payloads[i] != want || sending.Get(i) != wantSend || stopped.Get(i) != objs[i].Stopped() {
				t.Fatalf("round %d: process %d: kernel (%#x, %v, stopped %v), Round (%#x, %v, stopped %v)",
					r, i, payloads[i], sending.Get(i), stopped.Get(i), want, wantSend, objs[i].Stopped())
			}
			if v, ok := objs[i].Decided(); ok && k.KernelDecision(i) != v {
				t.Fatalf("round %d: process %d: KernelDecision %d, Decided %d", r, i, k.KernelDecision(i), v)
			}
		}
	}
}
