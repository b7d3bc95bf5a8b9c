// Command lowerbound demonstrates the paper's Section 3 construction
// end to end at small n: it finds a bivalent (or null-valent) initial
// state via the Lemma 3.5 chain argument, then lets the valency-guided
// adversary keep the execution undecided, printing the round-by-round
// classifications.
//
// Usage:
//
//	lowerbound -n 10 -seed 7
//	lowerbound -n 8 -metrics         # count rollouts and rounds
//	lowerbound -scenario testdata/corpus/synran-lowerbound.scenario
package main

import (
	"flag"
	"fmt"
	"os"

	"synran/internal/cli"
	"synran/internal/core"
	"synran/internal/sim"
	"synran/internal/valency"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lowerbound:", err)
		os.Exit(1)
	}
}

func run() error {
	common := cli.CommonFlags{Seed: 7}
	common.Register(flag.CommandLine, cli.FlagSeed|cli.FlagWorkers|cli.FlagDeadline|cli.FlagMetrics|cli.FlagScenario|cli.FlagCheckpoint)
	var (
		n        = flag.Int("n", 10, "number of processes (look-ahead is exponential-ish; keep small)")
		rollouts = flag.Int("rollouts", 16, "Monte-Carlo rollouts per pool adversary")
		stepwise = flag.Bool("stepwise", false, "use the faithful Section 3.4 message-by-message strategy")
	)
	flag.Parse()
	if err := common.Validate(); err != nil {
		return err
	}
	stop := cli.StartWatchdog(common.Deadline, cli.NewSyncWriter(os.Stderr), os.Exit, common.FlushCheckpoints)
	defer stop()
	if common.ScenarioMode() {
		// Scenario files run through the shared dispatch (a lowerbound
		// scenario is a synchronous one with the valency adversary); the
		// round-by-round narration below is the flag surface's extra.
		m := common.NewMetricsEngine()
		if err := cli.RunScenarios(&common, m, os.Stdout); err != nil {
			return err
		}
		return common.WriteMetrics(m, os.Stdout)
	}
	seed := &common.Seed
	t := *n - 1
	m := common.NewMetricsEngine()

	est := valency.NewEstimator(*n, *seed)
	est.RolloutsPerAdversary = *rollouts
	est.Metrics = m

	fmt.Printf("searching the Lemma 3.5 input chain for a non-univalent initial state (n=%d, t=%d)...\n", *n, t)
	factory := func(inputs []int, s uint64) ([]sim.Process, error) {
		return core.NewProcs(*n, inputs, s, core.Options{})
	}
	st, err := valency.FindInitialState(*n, t, factory, est, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("initial state: inputs=%v class=%v (min=%.2f max=%.2f)", st.Inputs, st.Class,
		st.Estimate.MinP, st.Estimate.MaxP)
	if st.CrashFirst >= 0 {
		fmt.Printf(" + round-1 crash of p%d", st.CrashFirst)
	}
	fmt.Println()

	procs, err := factory(st.Inputs, *seed)
	if err != nil {
		return err
	}
	exec, err := sim.NewExecution(sim.Config{N: *n, T: t, MaxRounds: 100 * *n, Metrics: m}, procs, st.Inputs, *seed)
	if err != nil {
		return err
	}

	var lb sim.Adversary
	if *stepwise {
		sw := valency.NewStepwise(*n, *seed)
		sw.Est.RolloutsPerAdversary = *rollouts
		sw.Est.Metrics = m
		lb = sw
	} else {
		cand := valency.NewLowerBound(*n, *seed)
		cand.Est.RolloutsPerAdversary = *rollouts
		cand.Est.Metrics = m
		lb = cand
	}

	fmt.Println("driving the execution under the valency adversary:")
	for !exec.Done() {
		view, err := exec.StepPhaseA()
		if err != nil {
			return err
		}
		plans := lb.Plan(view)
		if st.CrashFirst >= 0 && view.Round == 1 {
			plans = append([]sim.CrashPlan{{Victim: st.CrashFirst}}, plans...)
		}
		if err := exec.FinishRound(plans); err != nil {
			return err
		}
		est2, err := est.Classify(exec, exec.Round())
		if err != nil {
			return err
		}
		fmt.Printf("  round %3d: crashes this round=%d, budget left=%d, state=%v (min=%.2f max=%.2f)\n",
			exec.Round(), len(plans), exec.Budget(), est2.Class, est2.MinP, est2.MaxP)
	}
	res := exec.Result()
	fmt.Printf("finished after %d rounds, %d crashes, decided %d (agreement=%v validity=%v)\n",
		res.HaltRounds, res.Crashes, res.DecidedValue(), res.Agreement, res.Validity)
	fmt.Printf("theory: Theorem 1 floor is %.2f rounds (vacuous below 1 at this n); the mechanism\n",
		core.LowerBoundRounds(*n, t))
	fmt.Println("is the demonstration: non-univalent states persist while the budget lasts.")
	return common.WriteMetrics(m, os.Stdout)
}
