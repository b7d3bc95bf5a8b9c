// Command conformance runs the cross-engine differential harness: every
// case executes on both lock-step engine cores, the buffer-reusing
// Reset path, and the snapshot/clone forks, and the lanes' event logs,
// results, and metrics reports must agree field by field while the
// invariant oracles (agreement, validity, crash budget, wire encoding,
// metrics cross-checks) hold on every lane.
//
// Usage:
//
//	conformance -quick -seed 42
//	conformance -one "protocol=floodset,adversary=waves,workload=half,n=5,t=2,seed=3"
//	conformance -one "protocol=async-benor,adversary=splitter,coin=parity,n=4,t=1,seed=1,maxrounds=500"
//	conformance -scenario-dir testdata/corpus
//	conformance -scenario testdata/corpus/benor-unsafe.scenario
package main

import (
	"flag"
	"fmt"
	"os"

	"synran/internal/cli"
)

func main() {
	var opts cli.ConformanceOptions
	common := cli.CommonFlags{Seed: 42}
	common.Register(flag.CommandLine, cli.FlagSeed|cli.FlagWorkers|cli.FlagQuick|cli.FlagEngine|cli.FlagDeadline|cli.FlagMetrics|cli.FlagScenario|cli.FlagCheckpoint)
	flag.StringVar(&opts.One, "one", "", "check a single case spec (the repro every finding prints, sync or async) instead of the grid")
	flag.IntVar(&opts.Seeds, "seeds", 1, "seeds per grid point")
	flag.IntVar(&opts.MaxRounds, "maxrounds", 0, "per-lane round cap (0 = harness default)")
	flag.Parse()
	errw := cli.NewSyncWriter(os.Stderr)
	if err := common.Validate(); err != nil {
		fmt.Fprintln(errw, "conformance:", err)
		os.Exit(2)
	}
	if opts.Seeds < 1 {
		fmt.Fprintln(errw, "conformance: -seeds must be >= 1")
		os.Exit(2)
	}
	opts.Quick, opts.Seed, opts.Workers, opts.Engine = common.Quick, common.Seed, common.Workers, common.Engine
	opts.Scenario, opts.ScenarioDir = common.Scenario, common.ScenarioDir
	opts.Metrics = common.NewMetricsEngine()
	opts.Durable = common.Durable()
	stop := cli.StartWatchdog(common.Deadline, errw, os.Exit, common.FlushCheckpoints)
	defer stop()

	runErr := cli.Conformance(opts, os.Stdout)
	if err := common.WriteMetrics(opts.Metrics, os.Stdout); err != nil {
		fmt.Fprintln(errw, "conformance:", err)
		os.Exit(1)
	}
	if runErr != nil {
		fmt.Fprintln(errw, "conformance:", runErr)
		os.Exit(1)
	}
}
