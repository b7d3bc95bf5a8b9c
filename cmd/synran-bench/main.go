// Command synran-bench regenerates every experiment table (E1–E19 in
// DESIGN.md) that reproduces the paper's quantitative claims.
//
// Usage:
//
//	synran-bench              # full configuration (minutes)
//	synran-bench -quick       # reduced sizes (seconds)
//	synran-bench -only E3,E4  # a subset
//	synran-bench -csv         # machine-readable output
//	synran-bench -quick -metrics-out metrics.json
//	synran-bench -scenario-dir testdata/corpus   # corpus outcome table
package main

import (
	"flag"
	"fmt"
	"os"

	"synran/internal/cli"
)

func main() {
	var opts cli.BenchOptions
	common := cli.CommonFlags{Seed: 42}
	common.Register(flag.CommandLine, cli.FlagSeed|cli.FlagWorkers|cli.FlagQuick|cli.FlagDeadline|cli.FlagMetrics|cli.FlagScenario|cli.FlagCheckpoint)
	flag.StringVar(&opts.Only, "only", "", "comma-separated experiment ids (e.g. E3,E7)")
	flag.BoolVar(&opts.CSV, "csv", false, "emit CSV instead of aligned tables")
	flag.BoolVar(&opts.Markdown, "markdown", false, "emit GitHub-flavored markdown tables")
	flag.Parse()
	errw := cli.NewSyncWriter(os.Stderr)
	if err := common.Validate(); err != nil {
		fmt.Fprintln(errw, "synran-bench:", err)
		os.Exit(2)
	}
	opts.Seed, opts.Workers, opts.Quick = common.Seed, common.Workers, common.Quick
	opts.Scenario, opts.ScenarioDir = common.Scenario, common.ScenarioDir
	opts.Metrics = common.NewMetricsEngine()
	opts.Durable = common.Durable()
	stop := cli.StartWatchdog(common.Deadline, errw, os.Exit, common.FlushCheckpoints)
	defer stop()

	runErr := cli.Bench(opts, os.Stdout, errw)
	if err := common.WriteMetrics(opts.Metrics, os.Stdout); err != nil {
		fmt.Fprintln(errw, "synran-bench:", err)
		os.Exit(1)
	}
	if runErr != nil {
		fmt.Fprintln(errw, "synran-bench:", runErr)
		os.Exit(1)
	}
}
