// Command consensus-sim runs consensus executions and prints outcomes:
// a single run (optionally traced and digested) or a multi-trial summary.
//
// Usage:
//
//	consensus-sim -n 101 -t 100 -protocol synran -adversary splitvote \
//	    -workload half -seed 42 -trace
//	consensus-sim -n 256 -adversary splitvote -trials 50 -metrics
//	consensus-sim -scenario testdata/corpus/synran-clean.scenario
//	consensus-sim -scenario-dir testdata/corpus
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"synran"
	"synran/internal/cli"
	"synran/internal/workload"
)

func main() {
	var opts cli.SimOptions
	common := cli.CommonFlags{Seed: 1}
	common.Register(flag.CommandLine, cli.FlagSeed|cli.FlagWorkers|cli.FlagEngine|cli.FlagDeadline|cli.FlagMetrics|cli.FlagScenario|cli.FlagCheckpoint)
	flag.IntVar(&opts.N, "n", 64, "number of processes")
	flag.IntVar(&opts.T, "t", -1, "crash budget (default n-1)")
	flag.StringVar(&opts.Protocol, "protocol", "synran", "protocol: "+strings.Join(synran.Protocols(), "|"))
	flag.StringVar(&opts.Adversary, "adversary", "splitvote", "adversary: "+strings.Join(synran.Adversaries(), "|"))
	flag.StringVar(&opts.Workload, "workload", "half", "inputs: "+strings.Join(workload.Names(), "|"))
	flag.IntVar(&opts.Trials, "trials", 1, "number of runs (seed, seed+1, ...)")
	flag.BoolVar(&opts.Trace, "trace", false, "print a per-round trace (single trial only)")
	flag.BoolVar(&opts.Digest, "digest", false, "print the execution digest (single trial only)")
	flag.StringVar(&opts.TraceFile, "tracefile", "", "write a JSON event trace to this file (single trial only)")
	flag.BoolVar(&opts.Live, "live", false, "use the goroutine-per-process runner")
	flag.StringVar(&opts.Chaos, "chaos", "", "chaos fault schedule on the hardened live runner (e.g. drop=0.05,dup=0.02,stall=0.01,maxstall=5ms)")
	flag.IntVar(&opts.FaultBudget, "faultbudget", 0, "crash-equivalent chaos faults to absorb (keep adversary crashes + budget <= t)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060; empty = off)")
	flag.Parse()
	errw := cli.NewSyncWriter(os.Stderr)
	if err := common.Validate(); err != nil {
		fmt.Fprintln(errw, "consensus-sim:", err)
		os.Exit(2)
	}
	opts.Seed, opts.Workers, opts.Engine = common.Seed, common.Workers, common.Engine
	opts.Metrics = common.NewMetricsEngine()
	opts.Durable = common.Durable()
	if *pprofAddr != "" {
		addr, stopPprof, err := cli.StartPprof(*pprofAddr, opts.Metrics.Registry())
		if err != nil {
			fmt.Fprintln(errw, "consensus-sim:", err)
			os.Exit(2)
		}
		defer stopPprof()
		fmt.Fprintf(errw, "pprof: http://%s/debug/pprof/ (expvar at /debug/vars)\n", addr)
	}
	stop := cli.StartWatchdog(common.Deadline, errw, os.Exit, common.FlushCheckpoints)
	defer stop()

	var runErr error
	if common.ScenarioMode() {
		runErr = cli.RunScenarios(&common, opts.Metrics, os.Stdout)
	} else {
		runErr = cli.ConsensusSim(opts, os.Stdout)
	}
	if err := common.WriteMetrics(opts.Metrics, os.Stdout); err != nil {
		fmt.Fprintln(errw, "consensus-sim:", err)
		os.Exit(1)
	}
	if runErr != nil {
		fmt.Fprintln(errw, "consensus-sim:", runErr)
		os.Exit(1)
	}
}
