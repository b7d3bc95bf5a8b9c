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
// Proc.Round's payload, sending bit and stopped bit (the stale bits it
// starts from are overwritten), and every inactive process's payload and
// clear bits are left untouched. With empty inboxes the active processes
// run through the deterministic stage until they halt and go quiet.
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
	quiet, halted := false, false
	for r := 1; r <= FloodRounds(n)+3; r++ {
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
			quiet = quiet || !wantSend
			halted = halted || objs[i].Stopped()
		}
	}
	if !quiet || !halted {
		t.Fatalf("quiet %v, halted %v: the stale bits were never overwritten with both values", quiet, halted)
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

// TestDrewSinceReseed pins Execution.DrewSinceReseed on SynRan: it
// answers false only on the columnar core, after a reseed, while no
// coin has been drawn and View.Rng has not been read, and a clone keeps
// that answer; a coin, a View.Rng draw, the object core, a missing
// reseed or a fall-back off the columnar core each make it true.
func TestDrewSinceReseed(t *testing.T) {
	const n = 8
	ones, half := workload.Uniform(n, 1), workload.HalfHalf(n)
	for _, c := range []struct {
		name   string
		engine string
		inputs []int
		adv    sim.Adversary
		reseed bool
		want   bool
	}{
		{"coin-free", "", ones, adversary.None{}, true, false},
		{"never reseeded", "", ones, adversary.None{}, false, true},
		{"coin", "", half, adversary.None{}, true, true},
		{"View.Rng draw", "", ones, &adversary.Random{}, true, true},
		{"object core", sim.EngineObject, ones, adversary.None{}, true, true},
		{"left the columnar core", "", ones, &adversary.Equivocator{Corruptions: 1}, true, true},
	} {
		k, err := NewKernel(n, c.inputs, 3, Options{})
		if err != nil {
			t.Fatal(err)
		}
		e, err := sim.NewKernelExecution(sim.Config{N: n, T: n - 1, Engine: c.engine}, k, c.inputs, 3)
		if err != nil {
			t.Fatal(err)
		}
		if c.reseed {
			e.ReseedProcesses(11)
		}
		if err := e.Drive(c.adv); err != nil {
			t.Fatal(err)
		}
		if got := e.DrewSinceReseed(); got != c.want {
			t.Fatalf("%s: DrewSinceReseed = %v, want %v", c.name, got, c.want)
		}
		if got := e.Clone().DrewSinceReseed(); got != c.want {
			t.Fatalf("%s: a clone's DrewSinceReseed = %v, want %v", c.name, got, c.want)
		}
	}
}

// procState is the part of a Proc both cores must agree on: its
// protocol state and its coin stream.
type procState struct {
	s    state
	coin rng.Stream
}

func stateOf(p sim.Process) procState {
	q := p.(*Proc)
	return procState{s: q.s, coin: q.rng}
}

// TestDefaultCoreTracksObjectCore drives SynRan on the object core and,
// in lockstep with it, on the default core by both routes into it: the
// vector NewProcs builds, adopted through BuildKernel, and the kernel
// NewKernel builds with no Proc objects. A third lane pins the object
// core to NewKernel's kernel, which then runs the vector the kernel
// builds. After every Step each lane must have recorded the same trace
// as the object core (each broadcast payload, crash, decision and halt
// so far) and every Process(i) must hold the same state, coin stream
// included; finished runs must have identical Results. The Forger
// cases take the default core off its kernel, in round 1 or mid-run,
// through the fall-back that builds the whole vector from the kernel.
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
	type lane struct {
		name string
		e    *sim.Execution
		adv  sim.Adversary
		rec  *trace.Recorder
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			newLane := func(name, engine string, constructed bool) *lane {
				rec := trace.NewRecorder(n, tt, 7)
				cfg := sim.Config{N: n, T: tt, Engine: engine, Observer: rec}
				var e *sim.Execution
				var err error
				if constructed {
					var k sim.TallyKernel
					if k, err = NewKernel(n, inputs, 7, Options{}); err == nil {
						e, err = sim.NewKernelExecution(cfg, k, inputs, 7)
					}
				} else {
					var procs []sim.Process
					if procs, err = NewProcs(n, inputs, 7, Options{}); err == nil {
						e, err = sim.NewExecution(cfg, procs, inputs, 7)
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				return &lane{name, e, c.adv(), rec}
			}
			obj := newLane("object", sim.EngineObject, false)
			defs := []*lane{newLane("adopted", "", false), newLane("constructed", "", true),
				newLane("object from a kernel", sim.EngineObject, true)}
			for obj.e.Round() < maxRounds && !obj.e.Done() {
				if err := obj.e.Step(obj.adv); err != nil {
					t.Fatal(err)
				}
				for _, d := range defs {
					if d.e.Done() {
						t.Fatalf("%s finished after %d rounds, the object core did not", d.name, d.e.Round())
					}
					if err := d.e.Step(d.adv); err != nil {
						t.Fatal(err)
					}
					if i, dv, ov := trace.FirstDiff(d.rec.Log(), obj.rec.Log()); i >= 0 {
						t.Fatalf("%s: after round %d, trace event %d: %s, object core %s", d.name, obj.e.Round(), i, dv, ov)
					}
					for i := 0; i < n; i++ {
						if ds, os := stateOf(d.e.Process(i)), stateOf(obj.e.Process(i)); ds != os {
							t.Fatalf("%s: after round %d process %d: %+v, object core %+v", d.name, obj.e.Round(), i, ds, os)
						}
					}
				}
			}
			for _, d := range defs {
				if d.e.Done() != obj.e.Done() {
					t.Fatalf("%s: after round %d: done %v, object core done %v", d.name, obj.e.Round(), d.e.Done(), obj.e.Done())
				}
				if obj.e.Done() {
					if dr, or := d.e.Result(), obj.e.Result(); !reflect.DeepEqual(dr, or) {
						t.Fatalf("%s: results differ:\n%+v\nobject core %+v", d.name, dr, or)
					}
				}
			}
		})
	}
}

// TestObserverAttachedMidRun runs SynRan unobserved on each core until
// the first round after which some, but not all, live processes have
// halted, then attaches a recorder with SetObserver and runs on. Both
// cores must record the same events from the attach on, and none of
// them may be a decision of a process that halted before it: the
// end-of-round bookkeeping marks a decision seen whether or not
// anything observes it.
func TestObserverAttachedMidRun(t *testing.T) {
	const n, tt, seed = 16, 15, 6
	inputs := workload.HalfHalf(n)
	var logs []*trace.Log
	for _, engine := range []string{sim.EngineObject, ""} {
		procs, err := NewProcs(n, inputs, seed, Options{})
		if err != nil {
			t.Fatal(err)
		}
		e, err := sim.NewExecution(sim.Config{N: n, T: tt, Engine: engine}, procs, inputs, seed)
		if err != nil {
			t.Fatal(err)
		}
		adv := &adversary.Random{PerRound: 0.7, MaxPerRound: 2}
		var halted []int
		for active := n; len(halted) == 0 || active == 0; {
			if e.Done() {
				t.Fatalf("engine %q: no round left some but not all live processes halted", engine)
			}
			if err := e.Step(adv); err != nil {
				t.Fatal(err)
			}
			halted, active = halted[:0], 0
			for i := 0; i < n; i++ {
				switch {
				case !e.Alive(i) || e.Corrupt(i):
				case e.Halted(i):
					halted = append(halted, i)
				default:
					active++
				}
			}
		}
		rec := trace.NewRecorder(n, tt, seed)
		e.SetObserver(rec)
		if err := e.Drive(adv); err != nil {
			t.Fatal(err)
		}
		for _, ev := range rec.Log().Events {
			for _, h := range halted {
				if ev.Kind == "decide" && ev.Proc == h {
					t.Errorf("engine %q: %+v re-fires the decision of process %d, which halted before the attach", engine, ev, h)
				}
			}
		}
		logs = append(logs, rec.Log())
	}
	if i, dv, ov := trace.FirstDiff(logs[1], logs[0]); i >= 0 {
		t.Fatalf("after the attach, trace event %d: default core %s, object core %s", i, dv, ov)
	}
}

// TestNewKernelBuildsNewProcsVector pins the two constructors to one
// vector: the Procs a NewKernel kernel builds equal NewProcs' field for
// field, NewKernel rejects exactly what NewProcs rejects with the same
// error, and options that rule the kernel out yield no kernel.
func TestNewKernelBuildsNewProcsVector(t *testing.T) {
	for _, opts := range []Options{{}, {SymmetricCoin: true, FloodRounds: 5}, {SharedCoinSeed: 9}} {
		for _, n := range []int{1, 5, 130} {
			inputs := inputsHalf(n)
			want, err := NewProcs(n, inputs, 11, opts)
			if err != nil {
				t.Fatal(err)
			}
			k, err := NewKernel(n, inputs, 11, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := k.KernelProcs(); !reflect.DeepEqual(got, want) {
				t.Fatalf("opts %+v, n = %d: NewKernel's vector differs from NewProcs'", opts, n)
			}
			for i := 0; i < n; i++ {
				if got := k.KernelProcess(i); !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("opts %+v, n = %d: KernelProcess(%d) = %+v, NewProcs built %+v", opts, n, i, got, want[i])
				}
			}
		}
	}
	for name, inputs := range map[string][]int{"short": {0, 1}, "non-binary": {0, 1, 2}} {
		_, perr := NewProcs(3, inputs, 1, Options{})
		k, kerr := NewKernel(3, inputs, 1, Options{})
		if perr == nil || kerr == nil || perr.Error() != kerr.Error() || k != nil {
			t.Errorf("%s inputs: NewProcs error %v, NewKernel (%v, %v), want the same error and no kernel", name, perr, k, kerr)
		}
	}
	if k, err := NewKernel(4, inputsHalf(4), 1, Options{LeaderCoin: true}); k != nil || err != nil {
		t.Fatalf("LeaderCoin: NewKernel returned (%v, %v), want no kernel and no error", k, err)
	}
}

// TestNewKernelAllocationsFlat pins the columnar constructor: the same
// allocations (the kernel and its columns) at n = 64 as at n = 4096.
func TestNewKernelAllocationsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		inputs := inputsHalf(n)
		return testing.AllocsPerRun(10, func() {
			if _, err := NewKernel(n, inputs, 1, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(64), allocs(4096); large != small {
		t.Fatalf("NewKernel allocates %.0f times at n = 64 and %.0f at n = 4096, want equal", small, large)
	}
}

// TestCloneIntoColumnarAllocationsFlat pins that a columnar execution
// clones no process objects: CloneInto a fresh dst costs the same
// allocations at n = 64 as at n = 4096.
func TestCloneIntoColumnarAllocationsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		inputs := inputsHalf(n)
		k, err := NewKernel(n, inputs, 1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		e, err := sim.NewKernelExecution(sim.Config{N: n, T: n / 2}, k, inputs, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Step(&adversary.SplitVote{}); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() { _ = e.CloneInto(nil) })
	}
	if small, large := allocs(64), allocs(4096); large != small {
		t.Fatalf("CloneInto(nil) allocates %.0f times at n = 64 and %.0f at n = 4096, want equal", small, large)
	}
}

// TestProcessIsACopyOnTheColumnarCore pins the columnar Process
// contract: it returns a copy built at the call, so scribbling over
// every returned Proc leaves the execution's next rounds exactly as
// those of an untouched twin.
func TestProcessIsACopyOnTheColumnarCore(t *testing.T) {
	const n = 16
	inputs := inputsHalf(n)
	build := func() *sim.Execution {
		k, err := NewKernel(n, inputs, 3, Options{})
		if err != nil {
			t.Fatal(err)
		}
		e, err := sim.NewKernelExecution(sim.Config{N: n, T: n - 1}, k, inputs, 3)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e, twin := build(), build()
	adv, twinAdv := &adversary.SplitVote{}, &adversary.SplitVote{}
	for !twin.Done() {
		for i := 0; i < n; i++ {
			p := e.Process(i).(*Proc)
			p.s.b, p.s.st, p.s.decided, p.s.floodLeft = 1-p.s.b, stageDone, !p.s.decided, 0
			p.s.histLen, p.s.h = p.s.histLen+3, [3]int32{}
			p.rng.Reseed(99)
		}
		if err := e.Step(adv); err != nil {
			t.Fatal(err)
		}
		if err := twin.Step(twinAdv); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if got, want := stateOf(e.Process(i)), stateOf(twin.Process(i)); got != want {
				t.Fatalf("after round %d process %d: %+v, untouched twin %+v", twin.Round(), i, got, want)
			}
		}
	}
	if !e.Done() || !reflect.DeepEqual(e.Result(), twin.Result()) {
		t.Fatal("the scribbled execution ended differently from its twin")
	}
}
