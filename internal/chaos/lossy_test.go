package chaos_test

import (
	"fmt"
	"reflect"
	"testing"

	"synran"
	"synran/internal/adversary"
	"synran/internal/chaos"
	"synran/internal/metrics"
	"synran/internal/protocol/floodset"
	"synran/internal/sim"
)

func mustInjector(t *testing.T, seed uint64, drop float64) *chaos.Injector {
	t.Helper()
	inj, err := chaos.New(seed, chaos.Config{Drop: drop})
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func mustWrap(t *testing.T, inner sim.Adversary, inj *chaos.Injector) *chaos.Lossy {
	t.Helper()
	l, err := chaos.Wrap(inner, inj)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestZeroRateLossyMatchesUnwrapped: on both cores, an armed zero-rate
// injector leaves every façade protocol's run exactly as the bare
// adversary's, Result and digest alike (messages included), under a
// crashing adversary.
func TestZeroRateLossyMatchesUnwrapped(t *testing.T) {
	for _, protocol := range synran.Protocols() {
		model, err := synran.ProtocolFaults(protocol)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{5, 9, 16} {
			tt := min((n-1)/2, model.MaxT(n))
			for _, engine := range []string{"", sim.EngineObject} {
				for seed := uint64(1); seed <= 3; seed++ {
					run := func(cfg *synran.ChaosConfig) (*synran.Result, string) {
						d := sim.NewDigest()
						res, err := synran.Run(synran.Spec{
							N: n, T: tt, Inputs: synran.HalfHalfInputs(n), Protocol: protocol,
							Adversary: synran.AdversaryRandom, Seed: seed, Engine: engine,
							Chaos: cfg, Observer: d,
						})
						if err != nil {
							t.Fatalf("%s n=%d seed=%d engine %q: %v", protocol, n, seed, engine, err)
						}
						return res, d.String()
					}
					bare, dBare := run(nil)
					zero, dZero := run(&synran.ChaosConfig{})
					if !reflect.DeepEqual(bare, zero) || dBare != dZero {
						t.Errorf("%s n=%d t=%d seed=%d engine %q: zero-rate links changed the run: %+v (%s) vs %+v (%s)",
							protocol, n, tt, seed, engine, zero, dZero, bare, dBare)
					}
				}
			}
		}
	}
}

// TestLossyCloneContinuesIdentically forks a lossy run mid-way, on both
// cores: the cloned execution under the cloned wrapper must finish
// exactly as the original does.
func TestLossyCloneContinuesIdentically(t *testing.T) {
	const n, tt = 9, 4
	inputs := synran.HalfHalfInputs(n)
	for _, engine := range []string{"", sim.EngineObject} {
		procs, err := synran.NewProtocol(synran.ProtocolSynRan, n, tt, inputs, 5)
		if err != nil {
			t.Fatal(err)
		}
		inner, err := synran.NewAdversary(synran.AdversaryRandom, n, tt, 5)
		if err != nil {
			t.Fatal(err)
		}
		adv := mustWrap(t, inner, mustInjector(t, 5, 0.3))
		e, err := sim.NewExecution(sim.Config{N: n, T: tt, Engine: engine, FaultBudget: 3}, procs, inputs, 5)
		if err != nil {
			t.Fatal(err)
		}
		for e.Round() < 1 {
			if err := e.Step(adv); err != nil {
				t.Fatal(err)
			}
		}
		fork, forkAdv := e.Clone(), adv.Clone()
		left := e.FaultBudgetLeft()
		finish := func(e *sim.Execution, adv sim.Adversary) (*sim.Result, string) {
			d := sim.NewDigest()
			e.SetObserver(d)
			res, err := e.Run(adv)
			if err != nil {
				t.Fatal(err)
			}
			return res, d.String()
		}
		res, d := finish(e, adv)
		forkRes, forkD := finish(fork, forkAdv)
		if !reflect.DeepEqual(res, forkRes) || d != forkD {
			t.Errorf("engine %q: the fork diverged: %+v (%s) vs %+v (%s)", engine, forkRes, forkD, res, d)
		}
		if e.FaultBudgetLeft() == left {
			t.Errorf("engine %q: no demotion after the fork; the comparison is vacuous", engine)
		}
	}
}

// crashEvent is one OnCrash event.
type crashEvent struct{ round, victim, delivered int }

// crashLog records the OnCrash events.
type crashLog struct{ events []crashEvent }

func (l *crashLog) OnRound(int, *sim.View) {}
func (l *crashLog) OnCrash(r, victim, delivered int) {
	l.events = append(l.events, crashEvent{r, victim, delivered})
}
func (l *crashLog) OnDecide(int, int, int) {}
func (l *crashLog) OnHalt(int, int)        {}

// TestLossyDemotionMatchesCrashPlan recomputes each demotion from the
// injector alone: the victim's message reaches exactly the receivers
// alive before its round for which some of the three attempts gets
// through. Replaying those plans as crashes must give the same digest
// and the same message count on either core. FloodSet's processes all
// run to round t+1, so every demotion falls in a round where every
// survivor listens.
func TestLossyDemotionMatchesCrashPlan(t *testing.T) {
	const n, tt = 6, 3
	inputs := synran.HalfHalfInputs(n)
	demotions := 0
	for _, engine := range []string{"", sim.EngineObject} {
		for seed := uint64(1); seed <= 8; seed++ {
			inj := mustInjector(t, seed, 0.3)
			run := func(adv sim.Adversary, obs sim.Observer) *sim.Result {
				procs, err := floodset.NewProcs(n, tt, inputs)
				if err != nil {
					t.Fatal(err)
				}
				e, err := sim.NewExecution(sim.Config{N: n, T: n, Engine: engine, FaultBudget: n, Observer: obs}, procs, inputs, seed)
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.Run(adv)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			dLossy, log := sim.NewDigest(), &crashLog{}
			lossy := run(mustWrap(t, adversary.None{}, inj), sim.MultiObserver{dLossy, log})
			if lossy.Faults.Demoted != len(log.events) || lossy.Crashes != 0 {
				t.Fatalf("seed %d: %d demotions, %d crashes, %d crash events", seed, lossy.Faults.Demoted, lossy.Crashes, len(log.events))
			}
			demotions += len(log.events)

			plans := map[int][]sim.CrashPlan{}
			diedIn := map[int]int{} // victim -> its round
			for _, ev := range log.events {
				diedIn[ev.victim] = ev.round
			}
			for _, ev := range log.events {
				mask := sim.NewBitSet(n)
				for j := 0; j < n; j++ {
					if r, dead := diedIn[j]; j == ev.victim || dead && r < ev.round {
						continue
					}
					for a := 0; a < 3; a++ {
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
				plans[ev.round] = append(plans[ev.round], sim.CrashPlan{Victim: ev.victim, Deliver: mask})
			}
			dCrash := sim.NewDigest()
			crash := run(&adversary.Schedule{Plans: plans}, dCrash)
			if dLossy.Sum() != dCrash.Sum() || lossy.Messages != crash.Messages || crash.Crashes != len(log.events) {
				t.Fatalf("engine %q seed %d: demotions are not CrashPlan-equivalent: digest %s vs %s, messages %d vs %d",
					engine, seed, dLossy, dCrash, lossy.Messages, crash.Messages)
			}
		}
	}
	if demotions == 0 {
		t.Fatal("no seed demoted anyone: the comparison is vacuous")
	}
}

// oneShot decides 0 at once, sends in round 1 only when talk is set,
// and stops in round 2. Under drop rate 1 exactly the talkers lose their
// message to every receiver.
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

// TestLossyStopsAtFaultBudget pins the budget: a budget of k demotes
// the first k senders that lose a message, in index order, and lets
// every later sender's message through.
func TestLossyStopsAtFaultBudget(t *testing.T) {
	const n = 9
	inputs := make([]int, n)
	for _, tc := range []struct{ talkers, budget, demoted, messages int }{
		{1, 0, 0, n - 1},
		{2, 2, 2, 0},
		{3, 2, 2, n - 3}, // p2 reaches the n-3 survivors but itself
	} {
		procs := make([]sim.Process, n)
		for i := range procs {
			procs[i] = &oneShot{talk: i < tc.talkers}
		}
		log := &crashLog{}
		e, err := sim.NewExecution(sim.Config{N: n, T: 3, FaultBudget: tc.budget, Observer: log}, procs, inputs, 2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(mustWrap(t, adversary.None{}, mustInjector(t, 2, 1)))
		if err != nil {
			t.Fatal(err)
		}
		var want []crashEvent
		for v := 0; v < tc.demoted; v++ {
			want = append(want, crashEvent{1, v, 0})
		}
		if res.Faults.Demoted != tc.demoted || res.Crashes != 0 || res.Messages != tc.messages ||
			fmt.Sprint(log.events) != fmt.Sprint(want) {
			t.Errorf("%d talkers, budget %d: demoted %d, crashes %d, messages %d, events %v; want %d demoted, %d messages, events %v",
				tc.talkers, tc.budget, res.Faults.Demoted, res.Crashes, res.Messages, log.events, tc.demoted, tc.messages, want)
		}
		if !res.Agreement || !res.Validity {
			t.Errorf("%d talkers, budget %d: agreement=%v validity=%v", tc.talkers, tc.budget, res.Agreement, res.Validity)
		}
	}
}

// TestLossySkipsInnerVictims: a sender the inner adversary crashed or
// silenced this round is neither demoted again nor counted as a
// receiver, and the links demote the other senders that lost a message
// in index order, each reaching exactly the remaining receivers the
// injector lets through. Every process sends in round 1 only; the inner
// adversary's victim is p0 (the split omission picks the lowest-id
// sender of the majority value, and its mask names the lower half).
func TestLossySkipsInnerVictims(t *testing.T) {
	const n = 8
	demoted := 0
	for _, tc := range []struct {
		name         string
		inner        func() sim.Adversary
		budget, want int // fault budget, and p0's delivered count
	}{
		{"crash", func() sim.Adversary {
			return &adversary.Schedule{Plans: map[int][]sim.CrashPlan{1: {{Victim: 0}}}}
		}, 3, 0},
		{"omission", func() sim.Adversary { return &adversary.Omission{Mode: "split", Budget: 1} }, 4, n / 2},
	} {
		for seed := uint64(1); seed <= 10; seed++ {
			procs := make([]sim.Process, n)
			for i := range procs {
				procs[i] = &oneShot{talk: true}
			}
			inj := mustInjector(t, seed, 0.5)
			log := &crashLog{}
			e, err := sim.NewExecution(sim.Config{N: n, T: 1, FaultBudget: tc.budget, Observer: log}, procs, make([]int, n), seed)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(mustWrap(t, tc.inner(), inj)); err != nil {
				t.Fatal(err)
			}
			if len(log.events) == 0 || log.events[0] != (crashEvent{1, 0, tc.want}) {
				t.Fatalf("%s seed %d: events %v, want p0's first", tc.name, seed, log.events)
			}
			links := log.events[1:]
			if len(links) > 3 {
				t.Fatalf("%s seed %d: %d link demotions past the budget", tc.name, seed, len(links))
			}
			for k, ev := range links {
				reached := 0
				for j := 1; j < n; j++ {
					if j != ev.victim && (!inj.Drop(1, ev.victim, j, 0) || !inj.Drop(1, ev.victim, j, 1) || !inj.Drop(1, ev.victim, j, 2)) {
						reached++
					}
				}
				if ev.round != 1 || ev.victim == 0 || k > 0 && ev.victim <= links[k-1].victim || ev.delivered != reached {
					t.Fatalf("%s seed %d: link demotion %v, want round 1, ascending victims past p0, %d reached", tc.name, seed, ev, reached)
				}
			}
			demoted += len(links)
		}
	}
	if demoted == 0 {
		t.Fatal("no link demotion: the check is vacuous")
	}
}

// TestLossyRunDeterminism: a lossy run is a function of (seed, config)
// alone.
func TestLossyRunDeterminism(t *testing.T) {
	run := func() (*synran.Result, string) {
		d := sim.NewDigest()
		res, err := synran.Run(synran.Spec{
			N: 9, T: 3, Inputs: synran.HalfHalfInputs(9), Protocol: synran.ProtocolFloodSet, Seed: 17,
			Chaos: &synran.ChaosConfig{Drop: 0.2}, FaultBudget: 3, Observer: d,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, d.String()
	}
	r1, d1 := run()
	r2, d2 := run()
	if !reflect.DeepEqual(r1, r2) || d1 != d2 {
		t.Fatalf("same (seed, config) diverged: %+v (%s) vs %+v (%s)", r1, d1, r2, d2)
	}
	if r1.Faults.Demoted == 0 {
		t.Fatal("no demotion: the comparison is vacuous")
	}
}

// TestLossySoakNeverViolatesSafety: at E16's drop rates, with the
// adversary quiet and the demotions inside the budget t, every protocol
// that tolerates omissions completes with agreement and validity, on
// split and on uniform inputs.
func TestLossySoakNeverViolatesSafety(t *testing.T) {
	const n = 9
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for _, protocol := range synran.Protocols() {
		model, err := synran.ProtocolFaults(protocol)
		if err != nil {
			t.Fatal(err)
		}
		if model.Tolerates&synran.FaultOmission == 0 {
			continue
		}
		tt := min(3, model.MaxT(n))
		demoted := 0
		for _, rate := range []float64{0.05, 0.15, 0.30} {
			for _, inputs := range [][]int{synran.HalfHalfInputs(n), synran.UniformInputs(n, 1)} {
				for seed := uint64(0); seed < uint64(seeds); seed++ {
					res, err := synran.Run(synran.Spec{
						N: n, T: tt, Inputs: inputs, Protocol: protocol, Seed: seed,
						Chaos: &synran.ChaosConfig{Drop: rate}, FaultBudget: tt,
					})
					if err != nil {
						t.Fatalf("%s rate=%v seed=%d: %v", protocol, rate, seed, err)
					}
					if !res.Agreement || !res.Validity || res.Faults.Demoted > tt {
						t.Fatalf("%s rate=%v seed=%d inputs=%v: agreement=%v validity=%v demoted=%d (budget %d)",
							protocol, rate, seed, inputs, res.Agreement, res.Validity, res.Faults.Demoted, tt)
					}
					demoted += res.Faults.Demoted
				}
			}
		}
		if demoted == 0 {
			t.Errorf("%s: no demotion at any rate; the soak is vacuous", protocol)
		}
	}
}

// TestLossyMetricsMatchFaultAccounting: the demotions counter and the
// engine's counters agree with the Result of a lossy run.
func TestLossyMetricsMatchFaultAccounting(t *testing.T) {
	eng := metrics.NewEngine(metrics.New(1))
	res, err := synran.Run(synran.Spec{
		N: 9, T: 3, Inputs: synran.HalfHalfInputs(9), Protocol: synran.ProtocolFloodSet, Seed: 17,
		Chaos: &synran.ChaosConfig{Drop: 0.2}, FaultBudget: 3, Metrics: eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"proc_demotions", eng.Demotions.Value(), uint64(res.Faults.Demoted)},
		{"messages_delivered", eng.Messages.Value(), uint64(res.Messages)},
		{"engine_rounds", eng.Rounds.Value(), uint64(res.HaltRounds)},
		{"crashes_adversary", eng.CrashesAdversary.Value(), 0},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if res.Faults.Demoted == 0 {
		t.Fatal("no demotion: the cross-check is vacuous")
	}
}

// TestWrapRejectsForger: the engine never asks an Omitter to forge, so
// a Byzantine inner adversary is refused up front.
func TestWrapRejectsForger(t *testing.T) {
	if _, err := chaos.Wrap(&adversary.Equivocator{Corruptions: 1}, mustInjector(t, 1, 0.1)); err == nil {
		t.Fatal("Wrap accepted a Byzantine adversary")
	}
}
