// Package conformance is the cross-engine differential harness: it runs
// the same (protocol, input vector, seed) through four lock-step lanes
// — the engine (internal/sim) on BOTH of its cores (the
// object-per-process reference path and the columnar SoA core it
// defaults to, compared against each other on every case), a
// Reset-reuse replay, and snapshot forks (Clone and SnapshotArena)
// taken mid-run — and requires that every lane record the same trace
// (a trace.Log of round, send, crash, decide and halt events), the same
// Result, and the same deterministic metrics report, field by field.
//
// Divergences are reported with the first differing event index and a
// minimal repro command line, so a failure localizes to "lane A and lane
// B disagree at event k of this exact seeded case" instead of "two hash
// digests differ". Pluggable invariant oracles (see oracles.go) ride the
// same observer hook and check the paper's safety properties —
// agreement, validity, decide-once, halt-after-decide, crash budget,
// wire payload well-formedness, metrics-vs-Result consistency — on
// every lane they watch.
//
// The asynchronous engine (internal/async) cannot be compared
// event-for-event with the round-based engines; async.go checks an
// async-benor scenario by replay determinism (two runs of the same
// seeded scenario must deliver the same message sequence) and by the
// same invariant recomputations, with the SyncRound scheduler as the
// synchronous-round lane. Sync and async findings alike print one repro
// form: the case's compact scenario spec under -one.
package conformance

import (
	"errors"
	"fmt"

	"synran"
	"synran/internal/metrics"
	"synran/internal/scenario"
	"synran/internal/sim"
	"synran/internal/trace"
	"synran/internal/trials"
	"synran/internal/valency"
	"synran/internal/workload"
)

// Case identifies one seeded differential check: everything needed to
// reproduce the execution on every lane.
type Case struct {
	Protocol  string
	Adversary string
	Workload  string
	N, T      int
	Seed      uint64
	// Engine selects the lock-step engine core for the sequential,
	// reset, and fork lanes ("" or "soa" = the default columnar core
	// where a kernel exists, "object" = the object reference core).
	// Whatever the choice, CheckSync also runs the OTHER core as its own
	// lane and compares the two field by field — the cross-core
	// differential check rides every case.
	Engine string
	// MaxRounds overrides the engines' safety valve (0 = default).
	MaxRounds int
	// FaultBudget bounds the omission demotions an Omitter adversary may
	// perform, on every lane (sim.Config.FaultBudget).
	FaultBudget int
	// SnapRound is the round after which the fork lanes snapshot the
	// base execution; 0 picks half the sequential lane's halt round.
	SnapRound int
	// AllowUnsafe disables the agreement/validity oracles for cases that
	// deliberately leave a protocol's fault model (synran.ExpectSafe is
	// false: Ben-Or under any adversary, a crash-model protocol under
	// the equivocator). Differential checking still applies in full:
	// every lane must be unsafe in exactly the same way.
	AllowUnsafe bool
}

// Name is the case's short identifier in reports.
func (c Case) Name() string {
	name := fmt.Sprintf("%s/%s/%s/n=%d/t=%d/seed=%d",
		c.Protocol, c.Adversary, c.Workload, c.N, c.T, c.Seed)
	if c.Engine != "" {
		name += "/engine=" + c.Engine
	}
	if c.FaultBudget > 0 {
		// Appended only when set so pre-omission fingerprints are stable.
		name += fmt.Sprintf("/budget=%d", c.FaultBudget)
	}
	return name
}

// Spec renders the case in the -one flag syntax ParseCase accepts —
// the scenario package's compact encoding of the case's Scenario view.
// A case no scenario can express (a doctored test value) falls back to
// the identity rendering.
func (c Case) Spec() string {
	spec, err := scenario.Compact(c.Scenario())
	if err != nil {
		spec = fmt.Sprintf("protocol=%s,adversary=%s,workload=%s,n=%d,t=%d,seed=%d",
			c.Protocol, c.Adversary, c.Workload, c.N, c.T, c.Seed)
		if c.Engine != "" {
			spec += ",engine=" + c.Engine
		}
	}
	return spec
}

// Repro is the minimal reproduction command for the case.
func (c Case) Repro() string { return reproOne(c.Spec()) }

// reproOne is the one reproduction command every conformance finding
// prints: the case's compact scenario spec, replayed through -one.
func reproOne(spec string) string {
	return fmt.Sprintf("go run ./cmd/conformance -one %q", spec)
}

// ParseOne parses the -one flag syntax every repro prints, e.g.
// "protocol=synran,adversary=splitvote,workload=half,n=5,t=2,seed=42"
// or an async-benor spec. It delegates to the scenario package's
// compact codec on the harness's historical grid defaults (n=5, t = the
// protocol default, every other key at its scenario default: protocol
// synran, adversary none or scheduler fifo, workload half), so -one
// accepts exactly the validated scenario vocabulary.
func ParseOne(spec string) (scenario.Scenario, error) {
	return scenario.ParseCompactWith(scenario.Scenario{N: 5, T: -1}, spec)
}

// ParseCase parses a synchronous -one spec into its differential Case.
func ParseCase(spec string) (Case, error) {
	s, err := ParseOne(spec)
	if err != nil {
		return Case{}, err
	}
	return FromScenario(s)
}

// normalize applies the per-protocol/per-adversary gates a constructed
// case needs: the omission budget default and unsafe combinations.
func (c *Case) normalize() {
	// An omission adversary with no budget can do nothing; mirror the
	// scenario layer's default of the full demotion allowance.
	if scenario.IsOmission(c.Adversary) && c.FaultBudget == 0 {
		c.FaultBudget = c.T
	}
	// A protocol under faults outside its fault model (Ben-Or's
	// symmetric coin under any adversary, a crash-model protocol under
	// the Byzantine equivocator) may legitimately violate safety —
	// identically on every lane.
	if !synran.ExpectSafe(c.Protocol, c.Adversary, c.N, c.T) {
		c.AllowUnsafe = true
	}
}

// Divergence is one cross-lane disagreement, with enough context to
// reproduce and localize it.
type Divergence struct {
	// Name identifies the case and Repro is the -one command that
	// replays it.
	Name, Repro  string
	LaneA, LaneB string
	// Field names what disagrees ("event", "Result.Messages", a metrics
	// counter, ...).
	Field string
	A, B  string
	// EventIndex is the first differing event log index, or -1 when the
	// divergence is not an event-log one.
	EventIndex int
}

// String renders the divergence with its repro command.
func (d Divergence) String() string {
	at := ""
	if d.EventIndex >= 0 {
		at = fmt.Sprintf(" at event %d", d.EventIndex)
	}
	return fmt.Sprintf("%s: %s vs %s disagree on %s%s: %s != %s\n  repro: %s",
		d.Name, d.LaneA, d.LaneB, d.Field, at, d.A, d.B, d.Repro)
}

// lane is one engine run of a case: its recorded trace, its Result, and
// (when metered) its deterministic metrics report.
type lane struct {
	name     string
	log      *trace.Log
	res      *sim.Result
	timedOut bool
	rep      *metrics.Report
}

// checkedObserver bundles the trace recorder with the oracle checkers so
// one cfg.Observer slot feeds both.
func checkedObserver(rec *trace.Recorder, checkers []Checker) sim.Observer {
	obs := sim.MultiObserver{rec}
	for _, ch := range checkers {
		obs = append(obs, ch)
	}
	return obs
}

// newCheckers instantiates one checker per oracle.
func newCheckers(oracles []Oracle) []Checker {
	out := make([]Checker, len(oracles))
	for i, o := range oracles {
		out[i] = o.NewChecker()
	}
	return out
}

// finishCheckers collects every oracle's violations for one lane.
func finishCheckers(c Case, laneName string, oracles []Oracle, checkers []Checker, res *sim.Result, rep *metrics.Report) []string {
	var out []string
	for i, ch := range checkers {
		for _, v := range ch.Finish(c, res, rep) {
			out = append(out, fmt.Sprintf("%s [%s lane, oracle %s]: %s\n  repro: %s",
				c.Name(), laneName, oracles[i].Name(), v, c.Repro()))
		}
	}
	return out
}

// build constructs the protocol processes and adversary for the case.
// Look-ahead adversaries get a reduced rollout budget: the conformance
// grid checks engine agreement, not lower-bound quality.
func (c Case) build() ([]sim.Process, sim.Adversary, []int, error) {
	inputs, err := workload.Named(c.Workload, c.N, c.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	procs, err := synran.NewProtocol(c.Protocol, c.N, c.T, inputs, c.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	adv, err := synran.NewAdversaryBudget(c.Adversary, c.N, c.T, c.FaultBudget, c.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	switch a := adv.(type) {
	case *valency.LowerBound:
		a.Est.RolloutsPerAdversary = 6
	case *valency.Stepwise:
		a.Est.RolloutsPerAdversary = 6
	}
	return procs, adv, inputs, nil
}

func (c Case) config(obs sim.Observer, eng *metrics.Engine) sim.Config {
	return sim.Config{
		N: c.N, T: c.T, MaxRounds: c.MaxRounds, Engine: c.Engine,
		FaultBudget: c.FaultBudget,
		Observer:    obs, Metrics: eng, MetricsShard: 0,
	}
}

// finishLane normalizes a run's (res, err) pair: a MaxRounds timeout is
// a comparable outcome (every lane must time out identically), any other
// error is a harness failure.
func finishLane(name string, log *trace.Log, res *sim.Result, err error, eng *metrics.Engine) (*lane, error) {
	l := &lane{name: name, log: log, res: res}
	if err != nil {
		if !errors.Is(err, sim.ErrMaxRounds) {
			return nil, fmt.Errorf("conformance: %s lane: %w", name, err)
		}
		l.timedOut = true
	}
	if eng != nil {
		l.rep = eng.Registry().Report(false)
	}
	return l, nil
}

// runExec runs exec under adv. A MaxRounds timeout comes back with the
// execution's Result so far, marked Partial, alongside the error.
func runExec(exec *sim.Execution, adv sim.Adversary) (*sim.Result, error) {
	res, err := exec.Run(adv)
	if res == nil && errors.Is(err, sim.ErrMaxRounds) {
		res = exec.Result()
		res.Partial = true
	}
	return res, err
}

// laneRun runs a freshly built case under cfg, which carries the lane's
// recorder, oracle checkers and metrics engine.
type laneRun func(cfg sim.Config, procs []sim.Process, adv sim.Adversary, inputs []int) (*sim.Result, error)

// runLane is every recorded, checked and metered lane: it builds the
// case, runs it through run, and finishes the lane and its oracles.
func (c Case) runLane(name string, oracles []Oracle, run laneRun) (*lane, []string, error) {
	procs, adv, inputs, err := c.build()
	if err != nil {
		return nil, nil, err
	}
	rec := trace.NewRecorder(c.N, c.T, c.Seed)
	checkers := newCheckers(oracles)
	eng := metrics.NewEngine(metrics.New(1))
	res, err := run(c.config(checkedObserver(rec, checkers), eng), procs, adv, inputs)
	l, err := finishLane(name, rec.Log(), res, err, eng)
	if err != nil {
		return nil, nil, err
	}
	return l, finishCheckers(c, l.name, oracles, checkers, l.res, l.rep), nil
}

// runSequential is lane (a), the lock-step engine driven by Run, on the
// given engine core. CheckSync runs it twice — once per core — so the
// columnar core and the object core are differentially compared on
// every case, oracles and metrics included.
func (c Case) runSequential(name, engine string, oracles []Oracle) (*lane, []string, error) {
	return c.runLane(name, oracles, func(cfg sim.Config, procs []sim.Process, adv sim.Adversary, inputs []int) (*sim.Result, error) {
		cfg.Engine = engine
		exec, err := sim.NewExecution(cfg, procs, inputs, c.Seed)
		if err != nil {
			return nil, err
		}
		return runExec(exec, adv)
	})
}

// runReset is lane (c): run once to dirty every internal buffer, then
// Reset the same Execution and run the case again — Reset reuse must be
// indistinguishable from a fresh NewExecution.
func (c Case) runReset(oracles []Oracle) (*lane, []string, error) {
	procs, adv, inputs, err := c.build()
	if err != nil {
		return nil, nil, err
	}
	exec, err := sim.NewExecution(c.config(nil, nil), procs, inputs, c.Seed)
	if err != nil {
		return nil, nil, err
	}
	if _, err := exec.Run(adv); err != nil && !errors.Is(err, sim.ErrMaxRounds) {
		return nil, nil, fmt.Errorf("conformance: reset lane warmup: %w", err)
	}
	return c.runLane("reset", oracles, func(cfg sim.Config, procs []sim.Process, adv sim.Adversary, inputs []int) (*sim.Result, error) {
		if err := exec.Reset(cfg, procs, inputs, c.Seed); err != nil {
			return nil, err
		}
		return runExec(exec, adv)
	})
}

// driveTo advances exec round by round until round snap, termination,
// or the round cap (the continuation reports the timeout), through the
// same Step that Run loops over.
func driveTo(exec *sim.Execution, adv sim.Adversary, snap, maxRounds int) error {
	for exec.Round() < snap && exec.Round() < maxRounds && !exec.Done() {
		if err := exec.Step(adv); err != nil {
			return err
		}
	}
	return nil
}

// runForks is lane (d): drive a fresh base execution to the snapshot
// round, fork it twice — Execution.Clone and a SnapshotArena shell that
// has already been through one snapshot/release cycle — and run base and
// both forks to completion. All three must continue identically (and
// identically to the sequential lane): the fork lanes are what catch
// shallow-copy state sharing between an execution, its adversary, and
// their clones. Forks carry no oracles or metrics; the traces are the
// comparison.
func (c Case) runForks(snap int) (base, cloneFork, arenaFork *lane, err error) {
	procs, adv, inputs, err := c.build()
	if err != nil {
		return nil, nil, nil, err
	}
	maxRounds := c.MaxRounds
	if maxRounds == 0 {
		maxRounds = sim.DefaultMaxRounds(c.N)
	}
	baseRec := trace.NewRecorder(c.N, c.T, c.Seed)
	exec, err := sim.NewExecution(c.config(baseRec, nil), procs, inputs, c.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := driveTo(exec, adv, snap, maxRounds); err != nil {
		return nil, nil, nil, err
	}

	// Fork state is captured BEFORE the base continues: recorders,
	// adversary clones, and the two execution snapshots.
	cloneRec := baseRec.Clone()
	arenaRec := baseRec.Clone()
	cloneAdv := adv.Clone()
	arenaAdv := adv.Clone()
	clone := exec.Clone()
	clone.SetObserver(cloneRec)

	var arena sim.SnapshotArena
	if !exec.Done() {
		// Dirty the arena shell: one full snapshot/run/release cycle, so
		// the fork below exercises CloneInto reuse of a used shell.
		warm := arena.Snapshot(exec)
		warm.Run(adv.Clone())
		arena.Release(warm)
	}
	fork := arena.Snapshot(exec)
	fork.SetObserver(arenaRec)

	runRest := func(name string, e *sim.Execution, a sim.Adversary, rec *trace.Recorder) (*lane, error) {
		res, err := runExec(e, a)
		return finishLane(name, rec.Log(), res, err, nil)
	}
	if base, err = runRest("fork-base", exec, adv, baseRec); err != nil {
		return nil, nil, nil, err
	}
	if cloneFork, err = runRest("clone-fork", clone, cloneAdv, cloneRec); err != nil {
		return nil, nil, nil, err
	}
	if arenaFork, err = runRest("arena-fork", fork, arenaAdv, arenaRec); err != nil {
		return nil, nil, nil, err
	}
	return base, cloneFork, arenaFork, nil
}

// compareLanes diffs two lanes field by field, traces first (the most
// localizable divergence), then the Result, then metrics.
func compareLanes(c Case, a, b *lane) []Divergence {
	var out []Divergence
	div := func(field, av, bv string, idx int) {
		out = append(out, Divergence{
			Name: c.Name(), Repro: c.Repro(), LaneA: a.name, LaneB: b.name,
			Field: field, A: av, B: bv, EventIndex: idx,
		})
	}
	if idx, av, bv := trace.FirstDiff(a.log, b.log); idx >= 0 {
		div("event", av, bv, idx)
	}
	if a.timedOut != b.timedOut {
		div("timeout", fmt.Sprint(a.timedOut), fmt.Sprint(b.timedOut), -1)
	}
	if a.res != nil && b.res != nil {
		compareResults(c, a, b, &out)
	}
	if a.rep != nil && b.rep != nil {
		if d := a.rep.Diff(b.rep); d != "" {
			div("metrics", d, "(see left)", -1)
		}
	}
	return out
}

// compareResults diffs every Result field the engines promise to agree
// on.
func compareResults(c Case, a, b *lane, out *[]Divergence) {
	ra, rb := a.res, b.res
	div := func(field string, av, bv interface{}) {
		*out = append(*out, Divergence{
			Name: c.Name(), Repro: c.Repro(), LaneA: a.name, LaneB: b.name,
			Field: "Result." + field, A: fmt.Sprint(av), B: fmt.Sprint(bv), EventIndex: -1,
		})
	}
	if ra.DecideRounds != rb.DecideRounds {
		div("DecideRounds", ra.DecideRounds, rb.DecideRounds)
	}
	if ra.HaltRounds != rb.HaltRounds {
		div("HaltRounds", ra.HaltRounds, rb.HaltRounds)
	}
	if ra.Crashes != rb.Crashes {
		div("Crashes", ra.Crashes, rb.Crashes)
	}
	if ra.Messages != rb.Messages {
		div("Messages", ra.Messages, rb.Messages)
	}
	if ra.Survivors != rb.Survivors {
		div("Survivors", ra.Survivors, rb.Survivors)
	}
	if ra.Agreement != rb.Agreement {
		div("Agreement", ra.Agreement, rb.Agreement)
	}
	if ra.Validity != rb.Validity {
		div("Validity", ra.Validity, rb.Validity)
	}
	if fmt.Sprint(ra.Decisions) != fmt.Sprint(rb.Decisions) {
		div("Decisions", ra.Decisions, rb.Decisions)
	}
	if fmt.Sprint(ra.Decided) != fmt.Sprint(rb.Decided) {
		div("Decided", ra.Decided, rb.Decided)
	}
	if ra.Faults != rb.Faults {
		div("Faults", ra.Faults, rb.Faults)
	}
}

// CheckSync runs one case through every synchronous lane and returns the
// divergences and oracle violations. A non-nil error means the harness
// itself failed (bad case, engine error other than a timeout), not that
// the engines disagree.
func CheckSync(c Case, oracles []Oracle) ([]Divergence, []string, error) {
	if oracles == nil {
		oracles = DefaultOracles()
	}
	c.normalize()

	seq, violations, err := c.runSequential("sequential", c.Engine, oracles)
	if err != nil {
		return nil, nil, err
	}
	var divs []Divergence

	// Lane (b): the same case on the other engine core. A
	// default case is checked against the object reference core; a case
	// pinned to Engine=object is checked against the default instead.
	alt := sim.EngineObject
	if c.Engine == sim.EngineObject {
		alt = sim.EngineSoA
	}
	altLane, v, err := c.runSequential("sequential-"+alt, alt, oracles)
	if err != nil {
		return nil, nil, err
	}
	violations = append(violations, v...)
	divs = append(divs, compareLanes(c, seq, altLane)...)

	reset, v, err := c.runReset(oracles)
	if err != nil {
		return nil, nil, err
	}
	violations = append(violations, v...)
	divs = append(divs, compareLanes(c, seq, reset)...)

	snap := c.SnapRound
	if snap <= 0 {
		snap = seq.res.HaltRounds / 2
		if snap < 1 {
			snap = 1
		}
	}
	base, cloneFork, arenaFork, err := c.runForks(snap)
	if err != nil {
		return nil, nil, err
	}
	divs = append(divs, compareLanes(c, seq, base)...)
	divs = append(divs, compareLanes(c, seq, cloneFork)...)
	divs = append(divs, compareLanes(c, seq, arenaFork)...)

	return divs, violations, nil
}

// SweepConfig parameterizes a conformance sweep.
type SweepConfig struct {
	// Quick reduces the grid to one system size and two workloads.
	Quick bool
	// Seed offsets every case's seed; case i runs at Seed+i.
	Seed uint64
	// Seeds is the number of seeds per grid point (0 = 1).
	Seeds int
	// Workers bounds the case worker pool (0 = all cores).
	Workers int
	// Engine pins every case's lock-step core ("" = default, "object" =
	// the object reference core); the cross-core differential lane still
	// runs either way.
	Engine string
	// MaxRounds overrides each case's engine safety valve (0 = default).
	MaxRounds int
	// Oracles overrides the oracle set (nil = DefaultOracles).
	Oracles []Oracle
	// Metrics, when non-nil, counts cases through the trials harness.
	Metrics *metrics.Engine
	// Durable configures checkpointing and resume for the case batches
	// (trials.DurableWorker); the sync grid, async grid, and corpus
	// journal under distinct scopes. The zero value changes nothing.
	Durable trials.Durability
}

// Summary aggregates a sweep.
type Summary struct {
	SyncCases   int
	AsyncCases  int
	Divergences []Divergence
	Violations  []string
}

// Ok reports whether the sweep found nothing.
func (s *Summary) Ok() bool {
	return len(s.Divergences) == 0 && len(s.Violations) == 0
}

// Cases enumerates the sweep's synchronous grid: every protocol ×
// adversary × workload × size combination the engines all support, plus
// (full mode) a reduced look-ahead adversary case on the lock-step
// lanes only.
func Cases(cfg SweepConfig) []Case {
	protocols := []string{
		synran.ProtocolSynRan, synran.ProtocolBenOr, synran.ProtocolFloodSet,
		synran.ProtocolEarlyStop, synran.ProtocolPhaseKing,
	}
	adversaries := []string{
		synran.AdversaryNone, synran.AdversaryRandom,
		synran.AdversarySplitVote, synran.AdversaryWaves,
	}
	workloads := []string{"zeros", "half"}
	sizes := []int{5}
	if !cfg.Quick {
		workloads = append(workloads, "ones", "random")
		sizes = append(sizes, 9)
	}
	seeds := cfg.Seeds
	if seeds <= 0 {
		seeds = 1
	}
	var out []Case
	add := func(c Case) {
		for s := 0; s < seeds; s++ {
			cs := c
			cs.Seed = cfg.Seed + uint64(len(out))
			cs.Engine = cfg.Engine
			cs.MaxRounds = cfg.MaxRounds
			cs.normalize()
			out = append(out, cs)
		}
	}
	for _, n := range sizes {
		for _, proto := range protocols {
			t := scenario.DefaultT(proto, n)
			for _, adv := range adversaries {
				for _, wl := range workloads {
					add(Case{Protocol: proto, Adversary: adv, Workload: wl, N: n, T: t})
				}
			}
		}
	}
	// The omission and late families run as targeted cases rather than a
	// full product: each pairs the adversary with the protocol built for
	// it plus the paper's protocol, on both engine cores (Omitter
	// demotions and stale-view planning are exactly the machinery the
	// fork/reset lanes can get wrong).
	for _, tc := range []Case{
		{Protocol: synran.ProtocolOmitFlood, Adversary: synran.AdversaryOmissionSplit, Workload: "half", N: 9, T: 3, FaultBudget: 3},
		{Protocol: synran.ProtocolOmitFlood, Adversary: synran.AdversaryOmissionRandom, Workload: "half", N: 9, T: 3, FaultBudget: 3},
		{Protocol: synran.ProtocolSynRan, Adversary: synran.AdversaryOmissionSplit, Workload: "half", N: 9, T: 3, FaultBudget: 3},
		{Protocol: synran.ProtocolSynRan, Adversary: synran.AdversaryLateSplit, Workload: "half", N: 9, T: 4},
		{Protocol: synran.ProtocolLateBeacon, Adversary: synran.AdversaryLateSplit, Workload: "half", N: 10, T: 3},
		{Protocol: synran.ProtocolLateBeacon, Adversary: synran.AdversaryNone, Workload: "half", N: 10, T: 3},
	} {
		add(tc)
	}
	if !cfg.Quick {
		add(Case{Protocol: synran.ProtocolOmitFlood, Adversary: synran.AdversaryOmissionSplit, Workload: "random", N: 9, T: 3, FaultBudget: 2})
		add(Case{Protocol: synran.ProtocolSynRan, Adversary: synran.AdversaryOmissionRandom, Workload: "random", N: 9, T: 3, FaultBudget: 3})
		add(Case{Protocol: synran.ProtocolSynRan, Adversary: synran.AdversaryLateRandom, Workload: "random", N: 9, T: 4})
		// The look-ahead adversary exercises the clone/arena machinery
		// hardest (its Plan snapshots the live execution every round).
		add(Case{
			Protocol: synran.ProtocolSynRan, Adversary: synran.AdversaryLowerBound,
			Workload: "half", N: 5, T: 2,
		})
	}
	return out
}

// caseOutcome is one case's findings, aggregated in index order so the
// summary is identical at every worker count. Fields are exported
// because outcomes cross the checkpoint journal as JSON when
// SweepConfig.Durable is on.
type caseOutcome struct {
	Divs       []Divergence
	Violations []string
}

// sweepFingerprint identifies a sweep batch for the checkpoint journal:
// resuming under any changed knob, grid size or Divergence layout (its
// %#v spelling lists every field) is refused rather than silently
// mixing cases or decoding findings with zeroed fields.
func sweepFingerprint(kind string, cfg SweepConfig, cases int) string {
	return fmt.Sprintf("conformance=%s,quick=%v,seed=%d,seeds=%d,engine=%q,maxrounds=%d,cases=%d,shard=%#v",
		kind, cfg.Quick, cfg.Seed, cfg.Seeds, cfg.Engine, cfg.MaxRounds, cases, Divergence{})
}

// Sweep runs the full grid (sync differential lanes plus async replay
// cases) and aggregates the findings. The error reports harness
// failures only; engine disagreements are data, in Summary.
func Sweep(cfg SweepConfig) (*Summary, error) {
	oracles := cfg.Oracles
	if oracles == nil {
		oracles = DefaultOracles()
	}
	cases := Cases(cfg)
	outs, _, err := trials.DurableWorker(cfg.Durable, "conf-sync", sweepFingerprint("sync", cfg, len(cases)),
		cfg.Workers, len(cases), cfg.Metrics,
		func(worker, i int) (caseOutcome, error) {
			divs, violations, err := CheckSync(cases[i], oracles)
			if err != nil {
				return caseOutcome{}, fmt.Errorf("case %s: %w", cases[i].Name(), err)
			}
			return caseOutcome{Divs: divs, Violations: violations}, nil
		})
	if err != nil {
		return nil, err
	}
	sum := &Summary{SyncCases: len(cases)}
	for _, o := range outs {
		sum.Divergences = append(sum.Divergences, o.Divs...)
		sum.Violations = append(sum.Violations, o.Violations...)
	}

	asyncCases := AsyncCases(cfg)
	aouts, _, err := trials.DurableWorker(cfg.Durable, "conf-async", sweepFingerprint("async", cfg, len(asyncCases)),
		cfg.Workers, len(asyncCases), cfg.Metrics,
		func(worker, i int) (caseOutcome, error) {
			divs, violations, err := CheckAsync(asyncCases[i])
			if err != nil {
				return caseOutcome{}, fmt.Errorf("async case %s: %w", CaseName(asyncCases[i]), err)
			}
			return caseOutcome{Divs: divs, Violations: violations}, nil
		})
	if err != nil {
		return nil, err
	}
	sum.AsyncCases = len(asyncCases)
	for _, o := range aouts {
		sum.Divergences = append(sum.Divergences, o.Divs...)
		sum.Violations = append(sum.Violations, o.Violations...)
	}
	return sum, nil
}
