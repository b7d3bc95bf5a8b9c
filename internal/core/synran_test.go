package core

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"synran/internal/adversary"
	"synran/internal/sim"
	"synran/internal/wire"
)

func run(t *testing.T, spec RunSpec) *sim.Result {
	t.Helper()
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("Run(n=%d t=%d adv=%s seed=%d): %v", spec.N, spec.T, spec.Adversary.Name(), spec.Seed, err)
	}
	return res
}

func inputsUniform(n, v int) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = v
	}
	return in
}

func inputsHalf(n int) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = i % 2
	}
	return in
}

func checkSafe(t *testing.T, res *sim.Result, label string) {
	t.Helper()
	if !res.Agreement {
		t.Fatalf("%s: agreement violated: decisions=%v", label, res.Decisions)
	}
	if !res.Validity {
		t.Fatalf("%s: validity violated: decisions=%v", label, res.Decisions)
	}
}

func TestUniformInputsDecideFastNoFaults(t *testing.T) {
	for _, v := range []int{0, 1} {
		for _, n := range []int{1, 2, 3, 8, 33, 128} {
			res := run(t, RunSpec{
				N: n, T: 0, Inputs: inputsUniform(n, v),
				Seed: 42, Adversary: adversary.None{},
			})
			checkSafe(t, res, "uniform")
			if got := res.DecidedValue(); got != v {
				t.Fatalf("n=%d inputs all %d: decided %d", n, v, got)
			}
			// With no faults the first round shows a unanimous vote; the
			// decide + stop handshake completes within a handful of rounds.
			if res.HaltRounds > 6 {
				t.Fatalf("n=%d uniform no-fault run took %d rounds", n, res.HaltRounds)
			}
		}
	}
}

func TestMixedInputsTerminate(t *testing.T) {
	for _, n := range []int{2, 3, 5, 16, 64} {
		for seed := uint64(0); seed < 10; seed++ {
			res := run(t, RunSpec{
				N: n, T: 0, Inputs: inputsHalf(n),
				Seed: seed, Adversary: adversary.None{},
			})
			checkSafe(t, res, "mixed")
			if v := res.DecidedValue(); v != 0 && v != 1 {
				t.Fatalf("n=%d seed=%d: no common decision (%v)", n, seed, res.Decisions)
			}
		}
	}
}

func TestAgreementUnderRandomAdversary(t *testing.T) {
	for _, n := range []int{4, 9, 32} {
		for _, tt := range []int{1, n / 2, n - 1} {
			for seed := uint64(0); seed < 8; seed++ {
				res := run(t, RunSpec{
					N: n, T: tt, Inputs: inputsHalf(n),
					Seed:      seed,
					Adversary: &adversary.Random{PerRound: 0.7, MaxPerRound: 3},
				})
				checkSafe(t, res, "random-adv")
			}
		}
	}
}

func TestAgreementUnderSplitVote(t *testing.T) {
	for _, n := range []int{16, 64, 128} {
		for seed := uint64(0); seed < 5; seed++ {
			res := run(t, RunSpec{
				N: n, T: n - 1, Inputs: inputsHalf(n),
				Seed:      seed,
				Adversary: &adversary.SplitVote{},
			})
			checkSafe(t, res, "splitvote")
		}
	}
}

func TestValidityUnderMassCrash(t *testing.T) {
	// All-1 inputs, adversary crashes 70% of the 1-senders in round 2.
	// The one-side-bias rule (Z == 0 → b = 1) keeps SynRan valid; the
	// symmetric-coin variant decides 0, violating validity. This is the
	// paper's motivation for the biased coin.
	const n = 64
	mass := func() sim.Adversary {
		return &adversary.MassCrash{AtRound: 2, Fraction: 0.7, PreferValue: 1}
	}

	res := run(t, RunSpec{
		N: n, T: n - 1, Inputs: inputsUniform(n, 1),
		Seed: 7, Adversary: mass(),
	})
	checkSafe(t, res, "synran-masscrash")
	if res.DecidedValue() != 1 {
		t.Fatalf("SynRan decided %d on all-1 inputs", res.DecidedValue())
	}

	sym, err := Run(RunSpec{
		N: n, T: n - 1, Inputs: inputsUniform(n, 1),
		Opts: Options{SymmetricCoin: true},
		Seed: 7, Adversary: mass(),
	})
	if err != nil {
		t.Fatalf("symmetric run: %v", err)
	}
	if sym.Validity {
		t.Fatal("symmetric-coin variant unexpectedly kept validity under a 70% crash; " +
			"the one-side-bias ablation should demonstrate the violation")
	}
}

func TestDeterministicStageReached(t *testing.T) {
	// Crash everyone except two processes in the first round; the two
	// survivors see N below sqrt(n/log n) and must finish via FloodSet.
	const n = 64
	plans := make([]sim.CrashPlan, 0, n-2)
	for i := 2; i < n; i++ {
		plans = append(plans, sim.CrashPlan{Victim: i})
	}
	sched := &adversary.Schedule{Plans: map[int][]sim.CrashPlan{1: plans}}
	res := run(t, RunSpec{
		N: n, T: n - 1, Inputs: inputsHalf(n),
		Seed: 3, Adversary: sched,
	})
	checkSafe(t, res, "det-stage")
	if res.Survivors != 2 {
		t.Fatalf("survivors = %d, want 2", res.Survivors)
	}
	// Mixed survivor inputs (ids 0 and 1 hold 0 and 1): FloodSet's mixed
	// rule decides 0.
	if res.DecidedValue() != 0 {
		t.Fatalf("deterministic stage decided %d, want the default 0", res.DecidedValue())
	}
}

func TestSoleSurvivorDecides(t *testing.T) {
	const n = 16
	plans := make([]sim.CrashPlan, 0, n-1)
	for i := 1; i < n; i++ {
		plans = append(plans, sim.CrashPlan{Victim: i})
	}
	sched := &adversary.Schedule{Plans: map[int][]sim.CrashPlan{1: plans}}
	inputs := inputsUniform(n, 1)
	res := run(t, RunSpec{N: n, T: n, Inputs: inputs, Seed: 1, Adversary: sched})
	checkSafe(t, res, "sole-survivor")
	if res.Survivors != 1 || res.DecidedValue() != 1 {
		t.Fatalf("survivors=%d decision=%d, want 1 survivor deciding 1", res.Survivors, res.DecidedValue())
	}
}

func TestDeterminism(t *testing.T) {
	spec := RunSpec{
		N: 32, T: 16, Inputs: inputsHalf(32),
		Seed:      99,
		Adversary: &adversary.Random{PerRound: 0.6, MaxPerRound: 2},
	}
	a := run(t, spec)
	spec.Adversary = &adversary.Random{PerRound: 0.6, MaxPerRound: 2}
	b := run(t, spec)
	if a.HaltRounds != b.HaltRounds || a.Crashes != b.Crashes || a.DecidedValue() != b.DecidedValue() {
		t.Fatalf("identical seeds diverged: %+v vs %+v", a, b)
	}
}

func TestCloneMidRunContinuesIdentically(t *testing.T) {
	const n = 24
	inputs := inputsHalf(n)
	procs, err := NewProcs(n, inputs, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := sim.NewExecution(sim.Config{N: n, T: n / 2}, procs, inputs, 5)
	if err != nil {
		t.Fatal(err)
	}
	adv := &adversary.Random{PerRound: 0.5}
	// Advance three rounds manually.
	for r := 0; r < 3; r++ {
		v, err := exec.StepPhaseA()
		if err != nil {
			t.Fatal(err)
		}
		if err := exec.FinishRound(adv.Plan(v)); err != nil {
			t.Fatal(err)
		}
	}
	clone := exec.Clone()
	resA, err := exec.Run(adv.Clone())
	if err != nil {
		t.Fatal(err)
	}
	resB, err := clone.Run(adv.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if resA.HaltRounds != resB.HaltRounds || resA.DecidedValue() != resB.DecidedValue() ||
		resA.Crashes != resB.Crashes {
		t.Fatalf("clone diverged: %+v vs %+v", resA, resB)
	}
}

func TestSafetyQuick(t *testing.T) {
	// Property: Agreement and Validity hold for every configuration and
	// every adversary in the library (E9's inner loop).
	cfgIdx := 0
	f := func(nRaw, tRaw uint8, inputBits uint64, seed uint64) bool {
		n := int(nRaw%40) + 1
		tt := int(tRaw) % (n + 1)
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = int(inputBits>>uint(i%64)) & 1
		}
		advs := []sim.Adversary{
			adversary.None{},
			&adversary.Random{PerRound: 0.8, MaxPerRound: 4},
			&adversary.SplitVote{},
			&adversary.MassCrash{AtRound: 1 + int(seed%4), Fraction: 0.8, PreferValue: int(seed % 2)},
		}
		adv := advs[cfgIdx%len(advs)]
		cfgIdx++
		res, err := Run(RunSpec{N: n, T: tt, Inputs: inputs, Seed: seed, Adversary: adv})
		if err != nil {
			t.Logf("n=%d t=%d adv=%s seed=%d: %v", n, tt, adv.Name(), seed, err)
			return false
		}
		if !res.Agreement || !res.Validity {
			t.Logf("n=%d t=%d adv=%s seed=%d: agreement=%v validity=%v decisions=%v inputs=%v",
				n, tt, adv.Name(), seed, res.Agreement, res.Validity, res.Decisions, inputs)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestTentativeDecisionIsRevocable(t *testing.T) {
	// White-box: drive a single process manually. It sees a unanimous 1
	// vote (sets decided), then a crash wave large enough to fail the
	// stop test, which must clear the flag.
	const n = 20
	p, err := NewProc(0, n, 1, newTestStream(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, send := p.Round(1, nil); !send {
		t.Fatal("round 1 must send")
	}
	inbox := make([]sim.Recv, n-1)
	for i := range inbox {
		inbox[i] = sim.Recv{From: i + 1, Payload: 1}
	}
	if _, send := p.Round(2, inbox); !send {
		t.Fatal("round 2 must send")
	}
	if !p.TentativelyDecided() {
		t.Fatal("unanimous 1 vote should set the decided flag")
	}
	// Next round: only 8 of 19 peers remain: diff = 20-9 = 11 > 20/10.
	if _, send := p.Round(3, inbox[:8]); !send {
		t.Fatal("process must keep going when the stop test fails")
	}
	if _, ok := p.Decided(); ok {
		t.Fatal("process must not have halted")
	}
}

func TestStopAfterQuietRounds(t *testing.T) {
	const n = 20
	inbox := make([]sim.Recv, n-1)
	for i := range inbox {
		inbox[i] = sim.Recv{From: i + 1, Payload: 1}
	}
	// Round 3 hears everyone (diff = 0), or all but two, the stop
	// test's tie: diff = N^0 − N^2 = 2 and 10·2 = N^1 = 20.
	for _, heard := range []int{n - 1, n - 3} {
		p, err := NewProc(0, n, 1, newTestStream(1), Options{})
		if err != nil {
			t.Fatal(err)
		}
		p.Round(1, nil)
		p.Round(2, inbox) // decides tentatively
		if _, send := p.Round(3, inbox[:heard]); send {
			t.Fatalf("heard %d: stop test passes: the process must halt silently", heard)
		}
		v, ok := p.Decided()
		if !ok || v != 1 {
			t.Fatalf("heard %d: halted process decision = (%d, %v), want (1, true)", heard, v, ok)
		}
		if !p.Stopped() {
			t.Fatalf("heard %d: process must report Stopped after halting", heard)
		}
	}
}

func TestBoundsFunctions(t *testing.T) {
	if got := UpperBoundRounds(100, 0); got != 0 {
		t.Fatalf("UpperBoundRounds(t=0) = %v, want 0", got)
	}
	// Monotone in t for fixed n.
	prev := 0.0
	for tt := 1; tt <= 1024; tt *= 2 {
		v := UpperBoundRounds(1024, tt)
		if v <= prev {
			t.Fatalf("UpperBoundRounds not increasing at t=%d: %v <= %v", tt, v, prev)
		}
		prev = v
	}
	// Theorem 3 shape: t = n gives Theta(sqrt(n / log n)).
	n := 4096
	got := UpperBoundRounds(n, n)
	want := float64(n) / math.Sqrt(float64(n)*math.Log(2+math.Sqrt(float64(n))))
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("UpperBoundRounds(%d,%d) = %v, want %v", n, n, got, want)
	}
	if lb := LowerBoundRounds(n, n); lb <= 0 || lb >= got*10 {
		t.Fatalf("LowerBoundRounds(%d,%d) = %v out of plausible range vs upper %v", n, n, lb, got)
	}
	if RoundBudget(n) <= 0 || CoinControlBudget(n, 3) <= 0 {
		t.Fatal("budgets must be positive")
	}
	if d := 3*CoinControlBudget(n, 1) - CoinControlBudget(n, 3); d < 0 || d > 2 {
		t.Fatalf("CoinControlBudget must scale (nearly) linearly in k; off by %d", d)
	}
	// DetThreshold and FloodRounds consistency.
	for _, nn := range []int{1, 2, 16, 1024} {
		q := DetThreshold(nn)
		if q <= 0 {
			t.Fatalf("DetThreshold(%d) = %v", nn, q)
		}
		if FloodRounds(nn) < int(q) {
			t.Fatalf("FloodRounds(%d) = %d < DetThreshold %v", nn, FloodRounds(nn), q)
		}
	}
	// Valency thresholds bracket correctly.
	if ValencyLow(100, 0) <= 0 || ValencyHigh(100, 0) >= 1 {
		t.Fatal("round-0 valency thresholds must be interior")
	}
	if ValencyLow(100, 1) >= ValencyLow(100, 0) {
		t.Fatal("ValencyLow must decrease with the round index")
	}
	if ValencyHigh(100, 1) <= ValencyHigh(100, 0) {
		t.Fatal("ValencyHigh must increase with the round index")
	}
}

func TestNewProcValidation(t *testing.T) {
	if _, err := NewProc(0, 4, 2, newTestStream(1), Options{}); err == nil {
		t.Fatal("input 2 must be rejected")
	}
	if _, err := NewProc(4, 4, 0, newTestStream(1), Options{}); err == nil {
		t.Fatal("out-of-range id must be rejected")
	}
	if _, err := NewProcs(4, []int{0, 1}, 1, Options{}); err == nil {
		t.Fatal("mismatched inputs must be rejected")
	}
}

func TestPayloadEncoding(t *testing.T) {
	if wire.IsFlood(wire.Plain(0)) || wire.IsFlood(wire.Plain(1)) {
		t.Fatal("plain payloads must not be flood-tagged")
	}
	if !wire.IsFlood(wire.Flood(wire.MaskOne)) {
		t.Fatal("flood payloads must be flood-tagged")
	}
	if wire.Mask(wire.Flood(wire.MaskBoth)) != wire.MaskBoth {
		t.Fatal("flood payload must preserve the value mask")
	}
}

func TestSharedCoinOption(t *testing.T) {
	// With the common coin, the split vote cannot keep a coin-band split
	// alive: every undecided process adopts the same bit. Agreement and
	// validity hold across seeds and sizes.
	for _, n := range []int{8, 32} {
		for seed := uint64(1); seed <= 4; seed++ {
			res, err := Run(RunSpec{
				N: n, T: n - 1, Inputs: inputsHalf(n),
				Opts:      Options{SharedCoinSeed: seed},
				Seed:      seed,
				Adversary: &adversary.SplitVote{},
			})
			if err != nil {
				t.Fatal(err)
			}
			checkSafe(t, res, "sharedcoin")
		}
	}
}

func TestSharedCoinIsCommon(t *testing.T) {
	// The derived bit depends only on (seed, round): every process
	// computes the same sequence.
	for r := 1; r < 50; r++ {
		if sharedCoin(7, r) != sharedCoin(7, r) {
			t.Fatal("shared coin is not a function")
		}
	}
	// And it is not constant.
	zeros := 0
	for r := 1; r <= 64; r++ {
		if sharedCoin(7, r) == 0 {
			zeros++
		}
	}
	if zeros == 0 || zeros == 64 {
		t.Fatalf("shared coin degenerate: %d zeros of 64", zeros)
	}
}

func TestLeaderCoinSafety(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		res, err := Run(RunSpec{
			N: 24, T: 23, Inputs: inputsHalf(24),
			Opts:      Options{LeaderCoin: true},
			Seed:      seed,
			Adversary: adversary.NewCombo(adversary.LeaderKiller{}, &adversary.SplitVote{}),
		})
		if err != nil {
			t.Fatal(err)
		}
		checkSafe(t, res, "leadercoin")
	}
}

func TestReseedChangesFuture(t *testing.T) {
	mk := func() *Proc {
		p, err := NewProc(0, 20, 0, newTestStream(1), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Drive two identical processes into the coin band; reseed one; their
	// flips must diverge somewhere over many band rounds.
	a, b := mk(), mk()
	b.Reseed(999)
	diverged := false
	inbox := mkInbox(11, 8) // coin band at N' = 20
	a.Round(1, nil)
	b.Round(1, nil)
	for r := 2; r < 40 && !diverged; r++ {
		a.Round(r, inbox)
		b.Round(r, inbox)
		if a.B() != b.B() {
			diverged = true
		}
		// Keep both in the probabilistic stage with a steady inbox.
		if a.Stage() != int(stageProb) || b.Stage() != int(stageProb) {
			break
		}
	}
	if !diverged {
		t.Fatal("reseeded process flipped identically for 38 band rounds")
	}
}

func TestBlockCrashCost(t *testing.T) {
	if BlockCrashCost(1) != 0 {
		t.Fatal("p<=1 must cost 0")
	}
	if BlockCrashCost(1024) <= BlockCrashCost(64) {
		t.Fatal("block cost must grow with p")
	}
}

func TestLowerBoundRoundsZeroT(t *testing.T) {
	if LowerBoundRounds(64, 0) != 0 {
		t.Fatal("t=0 floor must be 0")
	}
}

func TestRunRejectsNilAdversary(t *testing.T) {
	if _, err := Run(RunSpec{N: 4, T: 0, Inputs: inputsUniform(4, 0)}); err == nil {
		t.Fatal("nil adversary must be rejected")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(RunSpec{N: 4, T: 9, Inputs: inputsUniform(4, 0), Adversary: adversary.None{}}); err == nil {
		t.Fatal("t > n must be rejected")
	}
	if _, err := Run(RunSpec{N: 4, T: 0, Inputs: []int{0}, Adversary: adversary.None{}}); err == nil {
		t.Fatal("input mismatch must be rejected")
	}
}

func TestCountValuesMixedMasks(t *testing.T) {
	inbox := []sim.Recv{
		{From: 1, Payload: wire.Flood(wire.MaskOne)},
		{From: 2, Payload: wire.Flood(wire.MaskZero)},
		{From: 3, Payload: wire.Flood(wire.MaskBoth)},
		{From: 4, Payload: wire.Plain(1)},
		{From: 5, Payload: wire.Plain(0)},
		{From: 6, Payload: wire.Plain(1)},
	}
	// {1}→one, {0}→zero, {0,1}→zero (conservative), plain 1, plain 0,
	// plain 1; every message witnesses its values.
	want := tally{ones: 3, zeros: 3, count: 6, mask: wire.MaskBoth}
	if got := tallyOf(inbox); got != want {
		t.Fatalf("tallyOf = %+v, want %+v", got, want)
	}
	// A payload outside the layout is classified by its own bits: a
	// plain-form 1 votes one and witnesses only {1}.
	want = tally{ones: 2, count: 2, mask: wire.MaskOne}
	if got := tallyOf([]sim.Recv{{From: 1, Payload: 1<<40 | 1}, {From: 2, Payload: wire.Plain(1)}}); got != want {
		t.Fatalf("tallyOf = %+v, want %+v", got, want)
	}
}

// TestNewProcsAllocationsFlat pins the one-block process vector: NewProcs
// makes the same few allocations at n = 64 as at n = 4096, never one
// per process.
func TestNewProcsAllocationsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		inputs := inputsHalf(n)
		return testing.AllocsPerRun(10, func() {
			if _, err := NewProcs(n, inputs, 1, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(64), allocs(4096); small > 2 || large != small {
		t.Fatalf("NewProcs allocates %.0f times at n = 64 and %.0f at n = 4096, want at most 2 at both", small, large)
	}
}

// TestCloneAndCopyFromOwnTheirCoin pins the by-value coin stream: a
// Clone's flips leave the original's stream where it was, and CopyFrom
// into a recycled Proc, or a zero one, reproduces the source's next
// flips without advancing the source.
func TestCloneAndCopyFromOwnTheirCoin(t *testing.T) {
	const flips = 64
	draw := func(p *Proc) []int {
		out := make([]int, flips)
		for i := range out {
			out[i] = p.rng.Bit()
		}
		return out
	}
	procs, err := NewProcs(4, inputsHalf(4), 9, Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := procs[0].(*Proc)
	clone := src.Clone().(*Proc)
	cloned := draw(clone)
	if got := draw(src); !reflect.DeepEqual(got, cloned) {
		t.Fatalf("after the clone's %d flips the original flips %v, want the clone's %v", flips, got, cloned)
	}
	for name, dst := range map[string]*Proc{"recycled": procs[1].(*Proc), "zero": {}} {
		if !dst.CopyFrom(src) {
			t.Fatalf("%s: CopyFrom rejected a *Proc", name)
		}
		copied := draw(dst)
		if got := draw(src); !reflect.DeepEqual(got, copied) {
			t.Fatalf("%s: the copy flips %v, the source then flips %v", name, copied, got)
		}
	}
}
