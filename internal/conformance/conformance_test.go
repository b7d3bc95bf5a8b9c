package conformance

import (
	"strconv"
	"strings"
	"testing"

	"synran/internal/async"
	"synran/internal/metrics"
	"synran/internal/scenario"
	"synran/internal/sim"
	"synran/internal/wire"
)

func TestParseCaseRoundTrip(t *testing.T) {
	c := Case{Protocol: "benor", Adversary: "splitvote", Workload: "ones", N: 9, T: 4, Seed: 77}
	c.normalize()
	parsed, err := ParseCase(c.Spec())
	if err != nil {
		t.Fatal(err)
	}
	if parsed != c {
		t.Fatalf("round trip mismatch:\n  in : %+v\n  out: %+v", c, parsed)
	}
	if !parsed.AllowUnsafe {
		t.Fatal("benor under an active adversary must be normalized to AllowUnsafe")
	}
	if _, err := ParseCase("protocol=synran,bogus=1"); err == nil {
		t.Fatal("unknown key must be rejected")
	}
	if _, err := ParseCase("n=0"); err == nil {
		t.Fatal("n=0 must be rejected")
	}
	def, err := ParseCase("")
	if err != nil {
		t.Fatal(err)
	}
	if def.T != 2 || def.N != 5 {
		t.Fatalf("defaults: %+v", def)
	}
}

func TestCheckSyncCleanCase(t *testing.T) {
	for _, spec := range []string{
		"protocol=synran,adversary=splitvote,workload=half,n=5,t=2,seed=42",
		"protocol=floodset,adversary=waves,workload=half,n=5,t=2,seed=3",
		"protocol=phaseking,adversary=random,workload=zeros,n=5,t=1,seed=9",
	} {
		c, err := ParseCase(spec)
		if err != nil {
			t.Fatal(err)
		}
		divs, violations, err := CheckSync(c, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		for _, d := range divs {
			t.Errorf("unexpected divergence: %s", d)
		}
		for _, v := range violations {
			t.Errorf("unexpected violation: %s", v)
		}
	}
}

// TestCompareLanesFlagsResultDrift plants a single-field Result
// disagreement between two otherwise identical lanes and checks the
// differential layer reports exactly it.
func TestCompareLanesFlagsResultDrift(t *testing.T) {
	c, _ := ParseCase("protocol=synran,adversary=none,workload=half,n=5,t=2,seed=1")
	seq, _, err := c.runSequential("sequential", c.Engine, nil)
	if err != nil {
		t.Fatal(err)
	}
	other, _, err := c.runSequential("sequential", c.Engine, nil)
	if err != nil {
		t.Fatal(err)
	}
	if divs := compareLanes(c, seq, other); len(divs) != 0 {
		t.Fatalf("identical lanes diverged: %v", divs)
	}
	other.res.Messages += 7 // a message-count drift between two lanes
	divs := compareLanes(c, seq, other)
	if len(divs) != 1 || divs[0].Field != "Result.Messages" {
		t.Fatalf("want exactly one Result.Messages divergence, got %v", divs)
	}
	if !strings.Contains(divs[0].String(), "cmd/conformance -one") {
		t.Fatalf("divergence must carry a repro: %s", divs[0])
	}
}

// TestOraclesCatchViolations feeds doctored Results/events to the
// checkers: each oracle must flag the seeded inconsistency.
func TestOraclesCatchViolations(t *testing.T) {
	c := Case{Protocol: "synran", Adversary: "none", Workload: "half", N: 3, T: 1}

	agree := agreementOracle{}.NewChecker()
	bad := &sim.Result{
		Decided:   []bool{true, true, false},
		Decisions: []int{0, 1, -1},
		Agreement: true,
		Survivors: 3,
	}
	if vs := agree.Finish(c, bad, nil); len(vs) == 0 {
		t.Fatal("agreement oracle missed a split decision vector")
	}

	valid := validityOracle{}.NewChecker()
	ones := c
	ones.Workload = "ones"
	bad = &sim.Result{
		Decided:   []bool{true, false, false},
		Decisions: []int{0, -1, -1},
		Validity:  true,
	}
	if vs := valid.Finish(ones, bad, nil); len(vs) < 2 {
		t.Fatalf("validity oracle must flag the violation and the lying flag, got %v", vs)
	}

	once := decideOnceOracle{}.NewChecker()
	once.OnDecide(1, 0, 1)
	once.OnDecide(2, 0, 0)
	if vs := once.Finish(c, nil, nil); len(vs) == 0 {
		t.Fatal("decide-once oracle missed a double decision")
	}

	halt := haltAfterDecideOracle{}.NewChecker()
	halt.OnHalt(1, 2)
	if vs := halt.Finish(c, nil, nil); len(vs) == 0 {
		t.Fatal("halt oracle missed a halt without a decision")
	}

	crash := crashBudgetOracle{}.NewChecker()
	crash.OnCrash(1, 0, 2)
	crash.OnCrash(2, 0, 0)
	vs := crash.Finish(c, &sim.Result{Crashes: 1}, nil)
	if len(vs) < 2 {
		t.Fatalf("crash oracle must flag the repeated victim, the budget, and the count drift, got %v", vs)
	}

	m := metricsOracle{}.NewChecker()
	m.OnRound(1, sim.NewView(sim.ViewState{N: 3}))
	rep := metrics.NewEngine(metrics.New(1)).Registry().Report(false) // all counters zero
	if vs := m.Finish(c, &sim.Result{}, rep); len(vs) == 0 {
		t.Fatal("metrics oracle missed a rounds-counter drift")
	}
}

// TestWireOracleCatchesMalformedPayload runs the wire checker over a
// synthetic view with an out-of-contract payload.
func TestWireOracleCatchesMalformedPayload(t *testing.T) {
	ch := wirePayloadOracle{}.NewChecker()
	sending := sim.NewBitSet(2)
	sending.Fill()
	v := sim.NewView(sim.ViewState{
		N:        2,
		Sending:  sending,
		Payloads: []int64{1, wire.FloodTag}, // flood word with an empty value-set mask
	})
	ch.OnRound(1, v)
	vs := ch.Finish(Case{}, nil, nil)
	if len(vs) != 1 || !strings.Contains(vs[0], "process 1") {
		t.Fatalf("wire oracle: got %v, want exactly the process-1 payload flagged", vs)
	}
}

func asyncScenario(t *testing.T, s scenario.Scenario) scenario.Scenario {
	t.Helper()
	s.Protocol = scenario.ProtocolAsyncBenOr
	ns, err := s.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	return ns
}

func TestCheckAsyncSplitterAndSyncRound(t *testing.T) {
	for _, sched := range []string{"fifo", "syncround", "splitter", "random"} {
		s := asyncScenario(t, scenario.Scenario{Adversary: sched, Workload: "half", N: 5, T: 2, Seed: 11})
		divs, violations, err := CheckAsync(s)
		if err != nil {
			t.Fatalf("%s: %v", CaseName(s), err)
		}
		for _, d := range divs {
			t.Errorf("%s: unexpected divergence: %s", sched, d)
		}
		for _, v := range violations {
			t.Errorf("%s: unexpected violation: %s", sched, v)
		}
	}
}

// TestAsyncLaneMatchesScenarioRun: the async lane runs exactly the
// scenario it is given — the run scenario.RunOutcome, asyncsim and
// -scenario files take — and a finding's repro parses back to that
// scenario, delivery cap included. A lane with its own scheduler table
// (one once crashed the random scheduler at 0.02 per step against
// everyone else's 0.01) or a repro that drops a key fails here.
func TestAsyncLaneMatchesScenarioRun(t *testing.T) {
	seeds := uint64(40)
	if testing.Short() {
		seeds = 8
	}
	var cases []scenario.Scenario
	for _, sched := range scenario.Schedulers() {
		for seed := uint64(0); seed < seeds; seed++ {
			cases = append(cases, asyncScenario(t, scenario.Scenario{Adversary: sched, N: 5, T: 2, Seed: seed}))
		}
	}
	cases = append(cases,
		asyncScenario(t, scenario.Scenario{Adversary: "splitter", Coin: "parity", N: 4, T: 1, Seed: 1, MaxRounds: 500}),
		asyncScenario(t, scenario.Scenario{Adversary: "random", N: 5, T: 2, Seed: 3, MaxRounds: 40}))
	partial := 0
	for _, s := range cases {
		name := CaseName(s)
		lane, err := runAsyncOnce(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := scenario.RunOutcome(&s, 0, nil, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := scenario.Outcome{Decided: -1, Rounds: len(lane.sched.log), Partial: lane.run.Res == nil}
		if res := lane.run.Res; res != nil {
			got.Agreement, got.Validity = res.Agreement, res.Validity
			got.Decided, got.Crashes = res.DecidedValue(), res.Crashes
		}
		if got != want {
			t.Errorf("%s: lane ran %+v, scenario run %+v", name, got, want)
		}
		if got.Partial {
			partial++
		}

		// A replay one delivery short is a finding; its repro must name s.
		short := &asyncRun{sched: &recordingSched{log: lane.sched.log[:len(lane.sched.log)-1]}, run: lane.run}
		divs, _, err := asyncFindings(s, lane, short)
		if err != nil || len(divs) == 0 {
			t.Fatalf("%s: a short replay must diverge (err %v)", name, err)
		}
		spec, err := strconv.Unquote(strings.TrimPrefix(divs[0].Repro, "go run ./cmd/conformance -one "))
		if err != nil {
			t.Fatalf("%s: repro %q: %v", name, divs[0].Repro, err)
		}
		back, err := ParseOne(spec)
		if err != nil {
			t.Fatalf("%s: repro %q does not parse: %v", name, divs[0].Repro, err)
		}
		if back != s {
			t.Errorf("%s: repro %q replays %+v, not %+v", name, divs[0].Repro, back, s)
		}
	}
	if partial < 2 {
		t.Fatalf("%d runs hit the delivery cap; the maxrounds cases never ran to it", partial)
	}
}

// TestAsyncInvariantsCatchTallyDrift reintroduces the pre-fix Splitter
// semantics by hand — a tally entry the engine never delivered — and
// checks the harness flags exactly the drift the Delivered-callback fix
// removed.
func TestAsyncInvariantsCatchTallyDrift(t *testing.T) {
	s := asyncScenario(t, scenario.Scenario{Adversary: "splitter", Workload: "half", N: 5, T: 2, Seed: 4})
	run, err := runAsyncOnce(s)
	if err != nil {
		t.Fatal(err)
	}
	if vs := asyncInvariants(s, run); len(vs) != 0 {
		t.Fatalf("clean splitter run must pass, got %v", vs)
	}
	// Drift the tally: record a report delivery that never happened (what
	// Next-side recording did whenever a same-step crash re-picked).
	sp := run.sched.inner.(*async.Splitter)
	sp.Delivered(async.Message{From: 0, To: 1, Payload: async.Pack(1, 1, 0)})
	vs := asyncInvariants(s, run)
	if len(vs) != 1 || !strings.Contains(vs[0], "splitter tally drift") {
		t.Fatalf("want exactly the tally-drift violation, got %v", vs)
	}
}

func TestSweepQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-grid sweep is seconds of work")
	}
	sum, err := Sweep(SweepConfig{Quick: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if sum.SyncCases < 40 || sum.AsyncCases < 3 {
		t.Fatalf("grid too small: %d sync, %d async", sum.SyncCases, sum.AsyncCases)
	}
	for _, d := range sum.Divergences {
		t.Errorf("divergence: %s", d)
	}
	for _, v := range sum.Violations {
		t.Errorf("violation: %s", v)
	}
	if !sum.Ok() {
		t.Fatal("quick sweep must be clean")
	}
}

// TestSweepWorkerInvariance pins the aggregation order: the summary is
// identical at every worker count.
func TestSweepWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick grid twice")
	}
	a, err := Sweep(SweepConfig{Quick: true, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(SweepConfig{Quick: true, Seed: 7, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.SyncCases != b.SyncCases || a.AsyncCases != b.AsyncCases ||
		len(a.Divergences) != len(b.Divergences) || len(a.Violations) != len(b.Violations) {
		t.Fatalf("worker-count dependent sweep: %+v vs %+v", a, b)
	}
}

// TestLowerBoundForkLanes runs the look-ahead adversary case — the one
// that exercises the Estimator deep-copy fix: before Estimator.Clone
// preserved an independent rollout counter, the clone-fork lane's plans
// interleaved with the base lane's and the event logs diverged.
func TestLowerBoundForkLanes(t *testing.T) {
	if testing.Short() {
		t.Skip("look-ahead adversary is expensive")
	}
	c := Case{Protocol: "synran", Adversary: "lowerbound", Workload: "half", N: 5, T: 2, Seed: 5}
	divs, violations, err := CheckSync(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range divs {
		t.Errorf("divergence: %s", d)
	}
	for _, v := range violations {
		t.Errorf("violation: %s", v)
	}
}
