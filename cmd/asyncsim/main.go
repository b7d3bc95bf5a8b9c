// Command asyncsim runs the asynchronous Ben-Or protocol (the model the
// paper's Section 1.2 contrasts with) under a chosen scheduler and
// prints the outcome, phases, and coin-flip counts — or demonstrates the
// FLP loop with the deterministic parity coin.
//
// Usage:
//
//	asyncsim -n 7 -t 3 -scheduler splitter -trials 20
//	asyncsim -n 4 -t 1 -coin parity -scheduler splitter   # FLP loop
//	asyncsim -scenario testdata/corpus/async-splitter.scenario
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"synran/internal/cli"
	"synran/internal/scenario"
	"synran/internal/workload"
)

func main() {
	var opts cli.AsyncOptions
	common := cli.CommonFlags{Seed: 1}
	common.Register(flag.CommandLine, cli.FlagSeed|cli.FlagWorkers|cli.FlagDeadline|cli.FlagMetrics|cli.FlagScenario|cli.FlagCheckpoint)
	flag.IntVar(&opts.N, "n", 7, "number of processes")
	flag.IntVar(&opts.T, "t", -1, "crash budget (default (n-1)/2; Ben-Or needs t < n/2)")
	flag.StringVar(&opts.Scheduler, "scheduler", "fifo", "scheduler: "+strings.Join(scenario.Schedulers(), "|"))
	flag.StringVar(&opts.Coin, "coin", "random", "coin: "+strings.Join(scenario.Coins(), "|")+" (parity = deterministic, FLP)")
	flag.StringVar(&opts.Workload, "workload", "half", "inputs: "+strings.Join(workload.Names(), "|"))
	flag.IntVar(&opts.Trials, "trials", 1, "number of runs")
	flag.IntVar(&opts.MaxSteps, "maxsteps", 0, "delivery cap (0 = default)")
	flag.Parse()
	errw := cli.NewSyncWriter(os.Stderr)
	if err := common.Validate(); err != nil {
		fmt.Fprintln(errw, "asyncsim:", err)
		os.Exit(2)
	}
	opts.Seed, opts.Workers = common.Seed, common.Workers
	opts.Metrics = common.NewMetricsEngine()
	opts.Durable = common.Durable()
	stop := cli.StartWatchdog(common.Deadline, errw, os.Exit, common.FlushCheckpoints)
	defer stop()

	var runErr error
	if common.ScenarioMode() {
		runErr = cli.RunScenarios(&common, opts.Metrics, os.Stdout)
	} else {
		runErr = cli.AsyncSim(opts, os.Stdout)
	}
	if err := common.WriteMetrics(opts.Metrics, os.Stdout); err != nil {
		fmt.Fprintln(errw, "asyncsim:", err)
		os.Exit(1)
	}
	if runErr != nil {
		fmt.Fprintln(errw, "asyncsim:", runErr)
		os.Exit(1)
	}
}
