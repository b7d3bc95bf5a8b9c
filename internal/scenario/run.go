package scenario

import (
	"errors"
	"strings"

	"synran"
	"synran/internal/async"
	"synran/internal/chaos"
	"synran/internal/metrics"
	"synran/internal/sim"
	"synran/internal/workload"
)

// Spec builds trial i's synran.Spec: the single bridge from the
// declarative form to the engines, used identically by the flag façades
// and the -scenario file path. The caller attaches any Observer.
func (s *Scenario) Spec(trial int, m *metrics.Engine, shard int) (synran.Spec, error) {
	if s.IsAsync() {
		return synran.Spec{}, errf("protocol %q has no synchronous spec", s.Protocol)
	}
	seed := s.TrialSeed(trial)
	inputs, err := workload.Named(s.Workload, s.N, seed)
	if err != nil {
		return synran.Spec{}, err
	}
	spec := synran.Spec{
		N: s.N, T: s.T, Inputs: inputs,
		Protocol:      s.Protocol,
		Adversary:     s.Adversary,
		Seed:          seed,
		MaxRounds:     s.MaxRounds,
		Engine:        s.Engine,
		Live:          s.Live,
		FaultBudget:   s.FaultBudget,
		RoundDeadline: s.Deadline,
		Retransmits:   s.Retransmits,
		Metrics:       m, MetricsShard: shard,
	}
	if s.Chaos != "" {
		cfg, err := chaos.ParseSpec(s.Chaos)
		if err != nil {
			return synran.Spec{}, errf("%v", err)
		}
		// "none" parses to the zero config: the hardened runner with an
		// armed zero-fault injector, preserving -chaos none semantics.
		spec.Chaos = &cfg
	}
	return spec, nil
}

// schedulers is the one table of async scheduler names (an
// async-benor scenario's Adversary) and their constructors, in the
// order Schedulers lists them. The random scheduler's crash rate is
// part of what a random-scheduler scenario means: changing it changes
// every such run.
var schedulers = []struct {
	name string
	new  func() async.Scheduler
}{
	{"fifo", func() async.Scheduler { return async.FIFO{} }},
	{"random", func() async.Scheduler { return &async.RandomSched{CrashProb: 0.01} }},
	{"splitter", func() async.Scheduler { return async.NewSplitter() }},
	{"syncround", func() async.Scheduler { return async.NewSyncRound() }},
}

// coins is the one table of async coin names and modes, in the order
// Coins lists them.
var coins = []struct {
	name string
	mode async.CoinMode
}{
	{"random", async.CoinRandom},
	{"parity", async.CoinParity},
}

// Schedulers returns the async scheduler names an async-benor
// scenario's Adversary field accepts.
func Schedulers() []string {
	out := make([]string, len(schedulers))
	for i, sc := range schedulers {
		out[i] = sc.name
	}
	return out
}

// Coins returns the coin modes an async-benor scenario accepts.
func Coins() []string {
	out := make([]string, len(coins))
	for i, c := range coins {
		out[i] = c.name
	}
	return out
}

// newScheduler builds an async scheduler by name.
func newScheduler(name string) (async.Scheduler, error) {
	for _, sc := range schedulers {
		if sc.name == name {
			return sc.new(), nil
		}
	}
	return nil, errf("unknown async scheduler %q (want %s)", name, strings.Join(Schedulers(), "|"))
}

// coinMode maps a coin name to the async engine's mode.
func coinMode(name string) (async.CoinMode, error) {
	for _, c := range coins {
		if c.name == name {
			return c.mode, nil
		}
	}
	return 0, errf("unknown coin %q (want %s)", name, strings.Join(Coins(), "|"))
}

// RunOutcome executes one trial of a normalized scenario and reduces
// the result to the comparable Outcome that Expect assertions check.
// Graceful degradation (fault budget, round or step cap, with a partial
// result) is an Outcome with Partial set, not an error.
func RunOutcome(s *Scenario, trial int, m *metrics.Engine, shard int) (Outcome, error) {
	if s.IsAsync() {
		run, err := RunAsync(s, trial, nil)
		if err != nil {
			return Outcome{}, err
		}
		return run.Outcome(), nil
	}
	spec, err := s.Spec(trial, m, shard)
	if err != nil {
		return Outcome{}, err
	}
	res, err := synran.Run(spec)
	if err != nil {
		if res != nil && res.Partial &&
			(errors.Is(err, synran.ErrFaultBudget) || errors.Is(err, sim.ErrMaxRounds)) {
			return OutcomeOf(res), nil
		}
		return Outcome{}, err
	}
	return OutcomeOf(res), nil
}

// OutcomeOf reduces an engine result to the comparable Outcome that
// Expect assertions check. Exported for the command cores, which hold a
// result already (observers attached) and only need the reduction.
func OutcomeOf(res *synran.Result) Outcome {
	return Outcome{
		Agreement: res.Agreement,
		Validity:  res.Validity,
		Decided:   res.DecidedValue(),
		Rounds:    res.HaltRounds,
		Crashes:   res.Crashes,
		Partial:   res.Partial,
	}
}

// AsyncRun is one async-benor trial: the engine's result, or a nil Res
// when the schedule hit the delivery cap after Steps deliveries — the
// FLP-style non-termination the adversarial schedules exist to show —
// and the Ben-Or processes' highest phase and total coin flips.
type AsyncRun struct {
	Res      *async.Result
	Steps    int
	MaxPhase int
	Flips    int
}

// RunAsync executes one trial of a normalized async-benor scenario. It is
// the one place that resolves an async run's scheduler, coin and
// workload by name and runs the async engine. wrap, when non-nil, wraps
// the named scheduler for the run (the conformance lane records
// deliveries through it).
func RunAsync(s *Scenario, trial int, wrap func(async.Scheduler) async.Scheduler) (AsyncRun, error) {
	if !s.IsAsync() {
		return AsyncRun{}, errf("protocol %q has no asynchronous run", s.Protocol)
	}
	seed := s.TrialSeed(trial)
	inputs, err := workload.Named(s.Workload, s.N, seed)
	if err != nil {
		return AsyncRun{}, err
	}
	mode, err := coinMode(s.Coin)
	if err != nil {
		return AsyncRun{}, err
	}
	sched, err := newScheduler(s.Adversary)
	if err != nil {
		return AsyncRun{}, err
	}
	if wrap != nil {
		sched = wrap(sched)
	}
	procs, err := async.NewBenOrProcs(s.N, s.T, inputs, mode, seed)
	if err != nil {
		return AsyncRun{}, err
	}
	exec, err := async.NewExecution(async.Config{N: s.N, T: s.T, MaxSteps: s.MaxRounds},
		procs, inputs, seed)
	if err != nil {
		return AsyncRun{}, err
	}
	res, err := exec.Run(sched)
	if err != nil && !errors.Is(err, async.ErrMaxSteps) {
		return AsyncRun{}, err
	}
	run := AsyncRun{Res: res, Steps: exec.Steps()}
	for _, p := range procs {
		b := p.(*async.BenOr)
		run.MaxPhase = max(run.MaxPhase, b.Phase())
		run.Flips += b.Flips()
	}
	return run, nil
}

// Outcome reduces the run to the comparable Outcome that Expect
// assertions check: a run cut at the delivery cap is Partial, with
// nobody decided.
func (r AsyncRun) Outcome() Outcome {
	if r.Res == nil {
		return Outcome{Decided: -1, Rounds: r.Steps, Partial: true}
	}
	return Outcome{
		Agreement: r.Res.Agreement,
		Validity:  r.Res.Validity,
		Decided:   r.Res.DecidedValue(),
		Rounds:    r.Res.Steps,
		Crashes:   r.Res.Crashes,
	}
}
