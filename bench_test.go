package synran_test

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"synran/internal/adversary"
	"synran/internal/async"
	"synran/internal/core"
	"synran/internal/experiments"
	"synran/internal/metrics"
	"synran/internal/sim"
	"synran/internal/valency"
	"synran/internal/workload"
)

// benchExperiment wraps one experiment (one paper table) as a bench
// target. Each iteration regenerates the full quick-mode table; run
// cmd/synran-bench for the full-size tables recorded in EXPERIMENTS.md.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var ex experiments.Experiment
	for _, e := range experiments.All() {
		if e.ID == id {
			ex = e
		}
	}
	if ex.Run == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// The canonical seed: benches measure cost, and the claims are
		// deterministic (and verified by the test suite) at this seed.
		res, err := ex.Run(experiments.Config{Quick: true, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Table.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
		if failed := res.Failed(); len(failed) > 0 {
			b.Fatalf("%s claims failed: %+v", id, failed)
		}
	}
}

// One bench per experiment table (the paper's quantitative claims).

func BenchmarkE1CoinGameControl(b *testing.B) { benchExperiment(b, "E1") }
func BenchmarkE2OneSidedBias(b *testing.B)    { benchExperiment(b, "E2") }
func BenchmarkE3SynRanScaleN(b *testing.B)    { benchExperiment(b, "E3") }
func BenchmarkE4SynRanScaleT(b *testing.B)    { benchExperiment(b, "E4") }
func BenchmarkE5Baselines(b *testing.B)       { benchExperiment(b, "E5") }
func BenchmarkE6LowerBound(b *testing.B)      { benchExperiment(b, "E6") }
func BenchmarkE7Deviation(b *testing.B)       { benchExperiment(b, "E7") }
func BenchmarkE8AdversaryCost(b *testing.B)   { benchExperiment(b, "E8") }
func BenchmarkE9Safety(b *testing.B)          { benchExperiment(b, "E9") }
func BenchmarkE10Schechtman(b *testing.B)     { benchExperiment(b, "E10") }
func BenchmarkE11AdaptivityGap(b *testing.B)  { benchExperiment(b, "E11") }
func BenchmarkE12IteratedGames(b *testing.B)  { benchExperiment(b, "E12") }
func BenchmarkE13SharedCoin(b *testing.B)     { benchExperiment(b, "E13") }
func BenchmarkE14Byzantine(b *testing.B)      { benchExperiment(b, "E14") }
func BenchmarkE15Asynchrony(b *testing.B)     { benchExperiment(b, "E15") }
func BenchmarkE16Chaos(b *testing.B)          { benchExperiment(b, "E16") }
func BenchmarkE18Omission(b *testing.B)       { benchExperiment(b, "E18") }
func BenchmarkE19LateAdversary(b *testing.B)  { benchExperiment(b, "E19") }

// BenchmarkTrialsSerialVsParallel measures the wall-clock win of the
// deterministic trial pool on real experiment tables: the same quick
// E3 and E6 runs at 1, 2, 4, and 8 workers. The tables are
// byte-identical at every width (enforced by the experiments package's
// worker-invariance test); only elapsed time may differ. Expect ≥2× on
// 4+ cores for serial vs parallel.
func BenchmarkTrialsSerialVsParallel(b *testing.B) {
	for _, id := range []string{"E3", "E6"} {
		var ex experiments.Experiment
		for _, e := range experiments.All() {
			if e.ID == id {
				ex = e
			}
		}
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers-%d", id, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := ex.Run(experiments.Config{Quick: true, Seed: 42, Workers: workers})
					if err != nil {
						b.Fatal(err)
					}
					if err := res.Table.Render(io.Discard); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// meanRounds runs SynRan b.N times and reports the mean halt rounds as a
// custom metric — the unit the ablation benches compare.
func meanRounds(b *testing.B, n, t int, opts core.Options, mkAdv func() sim.Adversary) {
	b.Helper()
	total := 0
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.RunSpec{
			N: n, T: t,
			Inputs:    workload.HalfHalf(n),
			Opts:      opts,
			Seed:      uint64(i)*2654435761 + 1,
			Adversary: mkAdv(),
		})
		if err != nil {
			b.Fatal(err)
		}
		total += res.HaltRounds
	}
	b.ReportMetric(float64(total)/float64(b.N), "rounds/op")
}

// Ablation: the one-side-bias rule. The symmetric variant is measured
// under a mild adversary only (it is not safe under strong ones — that
// is E5's point).
func BenchmarkAblationOneSideBias(b *testing.B) {
	const n = 128
	b.Run("paper", func(b *testing.B) {
		meanRounds(b, n, n/8, core.Options{}, func() sim.Adversary {
			return &adversary.Random{PerRound: 0.5}
		})
	})
	b.Run("symmetric", func(b *testing.B) {
		meanRounds(b, n, n/8, core.Options{SymmetricCoin: true}, func() sim.Adversary {
			return &adversary.Random{PerRound: 0.5}
		})
	})
}

// Ablation: the split-vote adversary's levers. Disabling the rescue or
// split levers weakens the attack (fewer forced rounds).
func BenchmarkAblationSplitVoteLevers(b *testing.B) {
	const n = 256
	cases := []struct {
		name string
		mk   func() sim.Adversary
	}{
		{"full", func() sim.Adversary { return &adversary.SplitVote{} }},
		{"no-split", func() sim.Adversary { return &adversary.SplitVote{DisableSplit: true} }},
		{"no-rescue", func() sim.Adversary { return &adversary.SplitVote{DisableRescue: true} }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			meanRounds(b, n, n-1, core.Options{}, c.mk)
		})
	}
}

// Ablation: Monte-Carlo rollout count vs valency classification cost.
func BenchmarkAblationValencyRollouts(b *testing.B) {
	const n = 12
	inputs := workload.HalfHalf(n)
	for _, rolls := range []int{8, 16, 32} {
		b.Run(map[int]string{8: "rollouts-8", 16: "rollouts-16", 32: "rollouts-32"}[rolls],
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					procs, err := core.NewProcs(n, inputs, uint64(i)+1, core.Options{})
					if err != nil {
						b.Fatal(err)
					}
					exec, err := sim.NewExecution(sim.Config{N: n, T: n - 1}, procs, inputs, uint64(i)+1)
					if err != nil {
						b.Fatal(err)
					}
					est := valency.NewEstimator(n, uint64(i))
					est.RolloutsPerAdversary = rolls
					if _, err := est.Classify(exec, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
	}
}

// Micro-benchmarks of the substrate.

func BenchmarkEngineFullRun(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(map[int]string{64: "n64", 256: "n256", 1024: "n1024"}[n], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.RunSpec{
					N: n, T: n / 2,
					Inputs:    workload.HalfHalf(n),
					Seed:      uint64(i) + 1,
					Adversary: &adversary.SplitVote{},
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Agreement {
					b.Fatal("agreement violated")
				}
			}
		})
	}
}

func BenchmarkExecutionClone(b *testing.B) {
	const n = 64
	inputs := workload.HalfHalf(n)
	procs, err := core.NewProcs(n, inputs, 1, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	exec, err := sim.NewExecution(sim.Config{N: n, T: n / 2}, procs, inputs, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = exec.Clone()
	}
}

// BenchmarkCloneVsCloneInto is the tentpole's before/after: a fresh
// deep copy per snapshot (clone) vs refilling a recycled shell
// (cloneinto) vs the arena that manages the shells (arena, the path
// the valency rollouts use). Steady-state cloneinto/arena should be
// near zero allocs/op.
func BenchmarkCloneVsCloneInto(b *testing.B) {
	const n = 64
	inputs := workload.HalfHalf(n)
	mkExec := func(b *testing.B) *sim.Execution {
		b.Helper()
		procs, err := core.NewProcs(n, inputs, 1, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		exec, err := sim.NewExecution(sim.Config{N: n, T: n / 2}, procs, inputs, 1)
		if err != nil {
			b.Fatal(err)
		}
		return exec
	}
	b.Run("clone", func(b *testing.B) {
		exec := mkExec(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = exec.Clone()
		}
	})
	b.Run("cloneinto", func(b *testing.B) {
		exec := mkExec(b)
		dst := exec.Clone() // warm shell: steady-state reuse is the metric
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = exec.CloneInto(dst)
		}
	})
	b.Run("arena", func(b *testing.B) {
		exec := mkExec(b)
		arena := &sim.SnapshotArena{}
		arena.Release(arena.Snapshot(exec)) // warm the fleet
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := arena.Snapshot(exec)
			arena.Release(c)
		}
	})
}

// warmCalls is how many calls a bench that bench-check gates makes
// before its timer starts: enough to grow the snapshot fleet and to let
// the runtime fill its type-assertion caches. Go fills a call site's
// cache on about one miss in 1,024, and a fill inside bench-check's 20
// timed iterations read as +4-33% B/op on the 48 B/op look-ahead rows
// and +2.3% on MetricsOverhead/off, whose gate is 2%.
const warmCalls = 400

// BenchmarkValencyEstimate measures one full Monte-Carlo valency
// classification (the lower-bound adversary's inner loop) on the
// pre-arena Clone path vs the arena snapshot path. Results are
// identical either way (the UseClone flag only switches the copy
// mechanism).
func BenchmarkValencyEstimate(b *testing.B) {
	const n = 16
	inputs := workload.HalfHalf(n)
	for _, mode := range []struct {
		name     string
		useClone bool
	}{{"clone", true}, {"arena", false}} {
		b.Run(mode.name, func(b *testing.B) {
			procs, err := core.NewProcs(n, inputs, 1, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			exec, err := sim.NewExecution(sim.Config{N: n, T: n - 1}, procs, inputs, 1)
			if err != nil {
				b.Fatal(err)
			}
			est := valency.NewEstimator(n, 7)
			est.RolloutsPerAdversary = 8
			est.UseClone = mode.useClone
			// Steady state is the metric, and bench-check's 20 timed
			// iterations have no other warmup (see warmCalls).
			for w := 0; w < warmCalls; w++ {
				if _, err := est.Classify(exec, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := est.Classify(exec, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStepwiseRound measures one Plan call of the Section 3.4
// step-by-step adversary against a live mid-round view — the heaviest
// consumer of snapshots (every inspected step classifies a successor
// state, each classification fanning out rollouts). It pins the object
// core, so it and BenchmarkStepwiseRoundSoA compare the two cores.
func BenchmarkStepwiseRound(b *testing.B) {
	const n = 12
	inputs := workload.HalfHalf(n)
	procs, err := core.NewProcs(n, inputs, 3, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	exec, err := sim.NewExecution(sim.Config{N: n, T: n - 1, Engine: sim.EngineObject}, procs, inputs, 3)
	if err != nil {
		b.Fatal(err)
	}
	v, err := exec.StepPhaseA()
	if err != nil {
		b.Fatal(err)
	}
	sw := valency.NewStepwise(n, 7)
	sw.Est.RolloutsPerAdversary = 4
	for w := 0; w < warmCalls; w++ { // steady state is the metric
		_ = sw.Plan(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sw.Plan(v)
	}
}

// BenchmarkMetricsOverhead measures the observability tax on the
// lock-step engine. "off" is the default: Metrics nil, every emission
// site on its nil-check fast path — CI gates this variant's allocs/op
// at 2% over the checked-in baseline, so the disabled layer must stay
// free. "on" runs the same executions with every instrument live; the
// shard slots are padded atomics, so even this path allocates nothing
// per emission.
func BenchmarkMetricsOverhead(b *testing.B) {
	const n = 64
	run := func(b *testing.B, m *metrics.Engine) {
		execute := func(i int) {
			res, err := core.Run(core.RunSpec{
				N: n, T: n / 2,
				Inputs:    workload.HalfHalf(n),
				Seed:      uint64(i) + 1,
				Adversary: &adversary.SplitVote{},
				Metrics:   m,
			})
			if err != nil {
				b.Fatal(err)
			}
			if !res.Agreement {
				b.Fatal("agreement violated")
			}
		}
		for i := 0; i < warmCalls; i++ { // steady state is the metric
			execute(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			execute(i)
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) { run(b, metrics.NewEngine(metrics.New(1))) })
}

// BenchmarkStepwiseRoundSoA is BenchmarkStepwiseRound on the columnar
// SoA core (the default): the identical Plan call (same n, seeds, and
// rollout fan-out — the two engines are byte-equivalent, so the
// adversary walks the same tree) with every snapshot, reseed, and
// rollout running on the packed kernel. CI gates this variant's allocs/op in bench-check;
// the PR-6 acceptance bar is >=10x the time and <=1/10 the allocs of
// the object engine's frozen baseline.
func BenchmarkStepwiseRoundSoA(b *testing.B) {
	const n = 12
	inputs := workload.HalfHalf(n)
	procs, err := core.NewProcs(n, inputs, 3, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	exec, err := sim.NewExecution(sim.Config{N: n, T: n - 1, Engine: sim.EngineSoA}, procs, inputs, 3)
	if err != nil {
		b.Fatal(err)
	}
	v, err := exec.StepPhaseA()
	if err != nil {
		b.Fatal(err)
	}
	sw := valency.NewStepwise(n, 7)
	sw.Est.RolloutsPerAdversary = 4
	for w := 0; w < warmCalls; w++ { // steady state is the metric
		_ = sw.Plan(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sw.Plan(v)
	}
}

// BenchmarkLookaheadRun is the Section 3 adversary run: one whole
// SynRan execution per op (t = n-1, half/half inputs, seed 42) under a
// valency adversary on the default core. Each iteration builds a fresh
// execution and adversary, and rollouts run one at a time, so allocs/op
// is deterministic. lowerbound-n16 and stepwise-n12 are perfbench
// lookahead's sizes; lowerbound-n256 is the first size of ROADMAP item
// 4's E6 sweep. n = 1024 (~0.85 s per execution) is left out, since
// bench-check runs every row 20 times. Part of the BENCH_SNAPSHOT set;
// bench-check gates each lane's allocs/op and B/op.
func BenchmarkLookaheadRun(b *testing.B) {
	lowerbound := func(n int) sim.Adversary { return valency.NewLowerBound(n, 42) }
	stepwise := func(n int) sim.Adversary { return valency.NewStepwise(n, 42) }
	for _, c := range []struct {
		name string
		n    int
		adv  func(n int) sim.Adversary
	}{
		{"lowerbound-n16", 16, lowerbound},
		{"stepwise-n12", 12, stepwise},
		{"lowerbound-n256", 256, lowerbound},
	} {
		b.Run(c.name, func(b *testing.B) {
			inputs := workload.HalfHalf(c.n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.RunSpec{
					N: c.n, T: c.n - 1,
					Inputs:    inputs,
					Seed:      42,
					Adversary: c.adv(c.n),
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Agreement {
					b.Fatal("agreement violated")
				}
			}
		})
	}
}

// BenchmarkEngineAtScale is the engines' headline row set: one full
// SynRan execution (t = n-1, SplitVote, half/half inputs, seed 42) per
// op. The object and soa lanes run each engine core at n = 1024, where
// the object engine's per-receiver inboxes dominate and the columnar
// core's popcount sweeps win by a factor that grows with n (the object
// core copies every inbox, quadratic in survivors per round; the SoA
// core is near-linear). Both engines are
// byte-equivalent (conformance lane e), so the executions are the same;
// only the representation differs. The soa-1e5 lane is the E17
// workload at n = 10^5, whose flood stage runs ~100 rounds with a few
// dozen survivors: it pins the packed flag columns' O(n/64 + members)
// round. Part of the BENCH_SNAPSHOT set: the JSON baseline records
// every lane so the ratios are auditable, and bench-check gates each
// lane's allocs/op.
func BenchmarkEngineAtScale(b *testing.B) {
	run := func(b *testing.B, n int, engine string) {
		if testing.Short() && n > 1024 {
			b.Skip("10^5-process executions; skipped under -short")
		}
		inputs := workload.HalfHalf(n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Fixed seed: every iteration replays the same execution, so
			// allocs/op is deterministic and bench-check can gate it.
			res, err := core.Run(core.RunSpec{
				N: n, T: n - 1,
				Inputs:    inputs,
				Seed:      42,
				Adversary: &adversary.SplitVote{},
				Engine:    engine,
			})
			if err != nil {
				b.Fatal(err)
			}
			if !res.Agreement {
				b.Fatal("agreement violated")
			}
		}
	}
	b.Run("object", func(b *testing.B) { run(b, 1024, sim.EngineObject) })
	b.Run("soa", func(b *testing.B) { run(b, 1024, sim.EngineSoA) })
	b.Run("soa-1e5", func(b *testing.B) { run(b, 100000, sim.EngineSoA) })
}

// BenchmarkAsyncSplitter is the asynchronous engine's row: one E15 FLP
// execution per op, parity-coin Ben-Or at n = 8, t = 3, half/half
// inputs, seed 42, under the Splitter. The deterministic protocol never
// decides, so every op runs to the 1500·n delivery cap E15 gives it
// (12,000 deliveries) while the pending set grows. Part of the
// BENCH_SNAPSHOT set; bench-check gates its allocs/op.
func BenchmarkAsyncSplitter(b *testing.B) {
	const n, t = 8, 3
	inputs := workload.HalfHalf(n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		procs, err := async.NewBenOrProcs(n, t, inputs, async.CoinParity, 42)
		if err != nil {
			b.Fatal(err)
		}
		exec, err := async.NewExecution(async.Config{N: n, T: t, MaxSteps: 1500 * n}, procs, inputs, 42)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := exec.Run(async.NewSplitter()); !errors.Is(err, async.ErrMaxSteps) {
			b.Fatalf("the FLP loop ended: %v", err)
		}
	}
}
