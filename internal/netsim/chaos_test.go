package netsim

import (
	"errors"
	"strings"
	"testing"
	"time"

	"synran/internal/adversary"
	"synran/internal/chaos"
	"synran/internal/core"
	"synran/internal/protocol/benor"
	"synran/internal/protocol/floodset"
	"synran/internal/sim"
)

func mustInjector(t *testing.T, seed uint64, cfg chaos.Config) *chaos.Injector {
	t.Helper()
	inj, err := chaos.New(seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// panicky panics in every round at or after `at` (1 = immediately).
type panicky struct{ at int }

func (p *panicky) Round(round int, inbox []sim.Recv) (int64, bool) {
	if round >= p.at {
		panic("protocol bug: nil map write")
	}
	return 1, true
}
func (p *panicky) Decided() (int, bool) { return 0, false }
func (p *panicky) Stopped() bool        { return false }
func (p *panicky) Clone() sim.Process   { return &panicky{at: p.at} }

func TestPanickingProcessYieldsErrorNotHang(t *testing.T) {
	// Regression for the runner that leaked the panic out of the process
	// goroutine: the coordinator then blocked forever on the dead
	// process's output channel. The panic must end the run promptly with
	// an error naming the process and the round — as a panicking trial
	// does on the lock-step engine — and a fault budget must not absorb
	// it: a panic is a bug, not a substrate fault.
	const n = 5
	inputs := halfInputs(n)
	procs, err := floodset.NewProcs(n, 2, inputs)
	if err != nil {
		t.Fatal(err)
	}
	procs[2] = &panicky{at: 2}

	type outcome struct {
		res *sim.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := RunChaos(sim.Config{N: n, T: 2}, procs, inputs, adversary.None{}, 7, Options{FaultBudget: 2})
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err == nil || !strings.Contains(o.err.Error(), "p2 panicked in round 2") ||
			!strings.Contains(o.err.Error(), "nil map write") {
			t.Fatalf("err = %v, want p2's round-2 panic named", o.err)
		}
		if o.res != nil {
			t.Fatalf("result = %+v, want none after a panic", o.res)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("runner hung on a panicking process")
	}
}

// oneShot decides 0 at once, sends in round 1 only when talk is set,
// and stops in round 2. Under drop rate 1 exactly the talkers lose their
// message to every receiver, so each costs exactly one demotion.
type oneShot struct {
	talk  bool
	round int
}

func (p *oneShot) Round(round int, _ []sim.Recv) (int64, bool) {
	p.round = round
	return 0, p.talk && round == 1
}
func (p *oneShot) Decided() (int, bool) { return 0, true }
func (p *oneShot) Stopped() bool        { return p.round >= 2 }
func (p *oneShot) Clone() sim.Process   { c := *p; return &c }

func TestFaultBudgetBoundary(t *testing.T) {
	// Pins the exact budget semantics the Options.FaultBudget doc
	// promises: a budget of k absorbs exactly k demotions and the
	// (k+1)-th aborts, so FaultBudget: 0 rejects the very first one.
	const n = 9
	inputs := make([]int, n)
	run := func(talkers, budget int) (*sim.Result, error) {
		procs := make([]sim.Process, n)
		for i := range procs {
			procs[i] = &oneShot{talk: i < talkers}
		}
		return RunChaos(sim.Config{N: n, T: 3}, procs, inputs, adversary.None{}, 2,
			Options{Injector: mustInjector(t, 2, chaos.Config{Drop: 1}), FaultBudget: budget})
	}

	// Budget 0: the first demotion is rejected, never absorbed.
	res, err := run(1, 0)
	if !errors.Is(err, ErrFaultBudget) {
		t.Fatalf("budget 0: err = %v, want ErrFaultBudget on the first demotion", err)
	}
	if res == nil || !res.Partial || res.Faults.Demoted != 0 {
		t.Fatalf("budget 0: result %+v, want partial with zero absorbed demotions", res)
	}

	// Budget exactly k = 2 with exactly 2 demotions: all absorbed, clean run.
	res, err = run(2, 2)
	if err != nil {
		t.Fatalf("budget 2, 2 demotions: err = %v, want clean completion", err)
	}
	// p0 loses every attempt to its n-1 receivers; p1 then loses every
	// attempt to the n-2 still alive.
	if drops := (2*n - 3) * (retransmits + 1); res.Partial || res.Faults.Demoted != 2 || res.Faults.Dropped != drops {
		t.Fatalf("budget 2, 2 demotions: partial=%v faults=%+v, want 2 demotions after %d drops",
			res.Partial, res.Faults, drops)
	}
	if !res.Agreement || !res.Validity || len(res.FaultNotes) != 2 {
		t.Fatalf("budget 2, 2 demotions: agreement=%v validity=%v notes=%q", res.Agreement, res.Validity, res.FaultNotes)
	}
	if res.Crashes != 0 {
		t.Fatalf("demotions charged to the adversary: Crashes=%d", res.Crashes)
	}

	// Budget k = 2 with 3 demotions: the (k+1)-th aborts after k absorbed.
	res, err = run(3, 2)
	if !errors.Is(err, ErrFaultBudget) {
		t.Fatalf("budget 2, 3 demotions: err = %v, want ErrFaultBudget", err)
	}
	if res == nil || !res.Partial || res.Faults.Demoted != 2 {
		t.Fatalf("budget 2, 3 demotions: result %+v, want partial with exactly 2 absorbed", res)
	}
}

// crashLog records the live runner's demotions as crash events.
type crashLog struct{ events []crashEvent }

type crashEvent struct{ round, victim, delivered int }

func (l *crashLog) OnRound(int, *sim.View) {}
func (l *crashLog) OnCrash(r, victim, delivered int) {
	l.events = append(l.events, crashEvent{r, victim, delivered})
}
func (l *crashLog) OnDecide(int, int, int) {}
func (l *crashLog) OnHalt(int, int)        {}

func TestOmissionDemotionMatchesCrashPlan(t *testing.T) {
	// An unrecovered omission demotes the sender with exactly the partial
	// delivery that happened. That is CrashPlan-observable: a sequential
	// run whose adversary crashes the same victims in the same rounds,
	// each with the receivers the injector let its message reach, must
	// produce a byte-identical digest. FloodSet's processes all run to
	// round t+1, so every demotion falls in a round where the receivers
	// not yet demoted are all listening.
	const n, tt = 6, 3
	inputs := halfInputs(n)
	demotions := 0
	for seed := uint64(1); seed <= 8; seed++ {
		inj := mustInjector(t, seed, chaos.Config{Drop: 0.3})
		dLive, log := sim.NewDigest(), &crashLog{}
		procsA, err := floodset.NewProcs(n, tt, inputs)
		if err != nil {
			t.Fatal(err)
		}
		liveRes, err := RunChaos(sim.Config{N: n, T: tt, Observer: sim.MultiObserver{dLive, log}}, procsA, inputs,
			adversary.None{}, seed, Options{Injector: inj, FaultBudget: n})
		if err != nil {
			t.Fatal(err)
		}
		if liveRes.Faults.Demoted != len(log.events) {
			t.Fatalf("seed %d: %d demotions but %d crash events", seed, liveRes.Faults.Demoted, len(log.events))
		}
		demotions += len(log.events)

		plans := map[int][]sim.CrashPlan{}
		dead := make([]bool, n)
		for _, ev := range log.events {
			mask := sim.NewBitSet(n)
			for j := 0; j < n; j++ {
				if j == ev.victim || dead[j] {
					continue
				}
				for a := 0; a <= retransmits; a++ {
					if !inj.Drop(ev.round, ev.victim, j, a) {
						mask.Set(j)
						break
					}
				}
			}
			if mask.Count() != ev.delivered {
				t.Fatalf("seed %d round %d: p%d reached %d receivers, the injector lets %d through",
					seed, ev.round, ev.victim, ev.delivered, mask.Count())
			}
			dead[ev.victim] = true
			plans[ev.round] = append(plans[ev.round], sim.CrashPlan{Victim: ev.victim, Deliver: mask})
		}

		dSeq := sim.NewDigest()
		procsB, err := floodset.NewProcs(n, tt, inputs)
		if err != nil {
			t.Fatal(err)
		}
		exec, err := sim.NewExecution(sim.Config{N: n, T: n, Observer: dSeq}, procsB, inputs, seed)
		if err != nil {
			t.Fatal(err)
		}
		seqRes, err := exec.Run(&adversary.Schedule{Plans: plans})
		if err != nil {
			t.Fatal(err)
		}
		if dLive.Sum() != dSeq.Sum() {
			t.Fatalf("seed %d: omission demotion is not CrashPlan-equivalent: %s vs %s", seed, dLive, dSeq)
		}
		if liveRes.DecidedValue() != seqRes.DecidedValue() || liveRes.Survivors != seqRes.Survivors {
			t.Fatalf("seed %d: live %+v vs sequential %+v", seed, liveRes, seqRes)
		}
	}
	if demotions == 0 {
		t.Fatal("no seed demoted anyone: the comparison is vacuous")
	}
}

func TestPartialDeliveryDigestEquality(t *testing.T) {
	// CrashPlan.Deliver subsets must behave identically on both engines,
	// including masks that deliver to nobody and to a strict majority.
	const n = 8
	inputs := halfInputs(n)
	seed := uint64(21)

	some := sim.NewBitSet(n)
	for _, j := range []int{1, 4, 6} {
		some.Set(j)
	}
	plans := map[int][]sim.CrashPlan{
		1: {{Victim: 2, Deliver: some}},
		2: {{Victim: 5}}, // nil mask: message reaches no one
	}

	run := func(live bool) (uint64, *sim.Result) {
		d := sim.NewDigest()
		procs, err := core.NewProcs(n, inputs, seed, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sched := &adversary.Schedule{Plans: plans}
		if live {
			res, err := Run(sim.Config{N: n, T: 3, Observer: d}, procs, inputs, sched, seed)
			if err != nil {
				t.Fatal(err)
			}
			return d.Sum(), res
		}
		exec, err := sim.NewExecution(sim.Config{N: n, T: 3, Observer: d}, procs, inputs, seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := exec.Run(sched)
		if err != nil {
			t.Fatal(err)
		}
		return d.Sum(), res
	}

	liveSum, liveRes := run(true)
	seqSum, seqRes := run(false)
	if liveSum != seqSum {
		t.Fatalf("partial delivery digests differ: %016x vs %016x", liveSum, seqSum)
	}
	if liveRes.Crashes != 2 || seqRes.Crashes != 2 {
		t.Fatalf("crashes %d/%d, want 2/2", liveRes.Crashes, seqRes.Crashes)
	}
}

func TestChaosRunDeterminism(t *testing.T) {
	// The whole chaotic execution — decisions, fault accounting, notes,
	// digest — is a function of (seed, config) alone.
	const n = 9
	inputs := halfInputs(n)
	run := func() (uint64, *sim.Result) {
		d := sim.NewDigest()
		procs, err := floodset.NewProcs(n, 3, inputs)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Injector: mustInjector(t, 17, chaos.Config{Drop: 0.2}), FaultBudget: 3}
		res, err := RunChaos(sim.Config{N: n, T: 3, Observer: d}, procs, inputs, adversary.None{}, 17, opts)
		if err != nil {
			t.Fatal(err)
		}
		return d.Sum(), res
	}
	s1, r1 := run()
	s2, r2 := run()
	if s1 != s2 || r1.Faults != r2.Faults || r1.DecidedValue() != r2.DecidedValue() ||
		strings.Join(r1.FaultNotes, "\n") != strings.Join(r2.FaultNotes, "\n") {
		t.Fatalf("same (seed, config) diverged: %016x/%+v vs %016x/%+v", s1, r1, s2, r2)
	}
	if r1.Faults.Dropped == 0 || r1.Faults.Demoted == 0 {
		t.Fatalf("faults %+v: the comparison is vacuous", r1.Faults)
	}
}

func TestChaosSoakNeverViolatesSafety(t *testing.T) {
	// Property soak: at E16's drop rates, with the demotions bounded by
	// the budget (and the adversary quiet, so the ≤ t resilience
	// condition holds), every protocol either completes with
	// Agreement+Validity or degrades gracefully with a typed error — and
	// even a partial result never contains conflicting decisions.
	const n = 9
	tt := 3
	inputs := halfInputs(n)
	builders := map[string]func() ([]sim.Process, error){
		"synran": func() ([]sim.Process, error) {
			return core.NewProcs(n, inputs, 1, core.Options{})
		},
		"floodset": func() ([]sim.Process, error) {
			return floodset.NewProcs(n, tt, inputs)
		},
		"benor": func() ([]sim.Process, error) {
			return benor.NewProcs(n, inputs, 1)
		},
	}
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	for name, mk := range builders {
		completed, degraded := 0, 0
		for _, rate := range []float64{0.05, 0.15, 0.30} {
			for seed := uint64(0); seed < uint64(seeds); seed++ {
				procs, err := mk()
				if err != nil {
					t.Fatal(err)
				}
				opts := Options{Injector: mustInjector(t, seed, chaos.Config{Drop: rate}), FaultBudget: tt}
				res, err := RunChaos(sim.Config{N: n, T: tt}, procs, inputs, adversary.None{}, seed, opts)
				if err != nil {
					if !errors.Is(err, ErrFaultBudget) && !errors.Is(err, sim.ErrMaxRounds) {
						t.Fatalf("%s rate=%v seed=%d: untyped error %v", name, rate, seed, err)
					}
					if res == nil || !res.Partial {
						t.Fatalf("%s rate=%v seed=%d: degraded run must return a partial result", name, rate, seed)
					}
					degraded++
				} else {
					if res.Partial {
						t.Fatalf("%s rate=%v seed=%d: clean run marked partial", name, rate, seed)
					}
					if !res.Agreement || !res.Validity {
						t.Fatalf("%s rate=%v seed=%d: agreement=%v validity=%v faults=%+v",
							name, rate, seed, res.Agreement, res.Validity, res.Faults)
					}
					completed++
				}
				if res.Faults.Demoted > tt {
					t.Fatalf("%s rate=%v seed=%d: budget overrun: %+v", name, rate, seed, res.Faults)
				}
				// Even partial results must never contain two different
				// decided values among the survivors (fail-stop preserved).
				seen := -1
				for i, ok := range res.Decided {
					if !ok {
						continue
					}
					if seen == -1 {
						seen = res.Decisions[i]
					} else if seen != res.Decisions[i] {
						t.Fatalf("%s rate=%v seed=%d: conflicting decisions in %+v", name, rate, seed, res.Decisions)
					}
				}
			}
		}
		t.Logf("%s: %d completed, %d degraded gracefully", name, completed, degraded)
	}
}

func TestChaosMaxRoundsReturnsPartialResult(t *testing.T) {
	procs := []sim.Process{neverDecide{}, neverDecide{}, neverDecide{}}
	opts := Options{Injector: mustInjector(t, 1, chaos.Config{Drop: 0.2}), FaultBudget: 3}
	res, err := RunChaos(sim.Config{N: 3, T: 0, MaxRounds: 6}, procs, []int{0, 0, 0},
		adversary.None{}, 1, opts)
	if !errors.Is(err, sim.ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("result = %+v, want non-nil partial", res)
	}
}
