// Livecluster: runs SynRan over the goroutine-per-process runner (one
// goroutine per replica, channels as links, a coordinator as the round
// synchronizer) with a live event trace — the same protocol code as the
// lock-step simulator, deployed concurrently. A second run turns on the
// chaos injector: the links drop messages, the synchronizer re-sends
// them, and a sender whose message stays lost is demoted to a budgeted
// crash fault, so safety survives.
package main

import (
	"flag"
	"fmt"
	"os"

	"synran"
	"synran/internal/cli"
)

func main() {
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060; empty = off)")
	flag.Parse()
	const n = 24
	// One shared engine for both runs; shard 0 because the example runs
	// its executions one at a time. Its instruments feed the expvar
	// endpoint when -pprof is set.
	eng := synran.NewMetricsEngine(1)
	if *pprofAddr != "" {
		addr, stopPprof, err := cli.StartPprof(*pprofAddr, eng.Registry())
		if err != nil {
			fmt.Fprintln(os.Stderr, "livecluster:", err)
			os.Exit(1)
		}
		defer stopPprof()
		fmt.Printf("pprof: http://%s/debug/pprof/ (metrics under /debug/vars)\n", addr)
	}
	fmt.Printf("starting %d replica goroutines (adaptive split-vote adversary, t=%d)\n\n", n, n-1)
	res, err := synran.Run(synran.Spec{
		N: n, T: n - 1,
		Inputs:    synran.HalfHalfInputs(n),
		Adversary: synran.AdversarySplitVote,
		Seed:      7,
		Live:      true,
		Observer:  &synran.TraceObserver{W: os.Stdout},
		Metrics:   eng,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "livecluster:", err)
		os.Exit(1)
	}
	fmt.Printf("\ndecided %d after %d rounds; crashes=%d survivors=%d agreement=%v validity=%v\n",
		res.DecidedValue(), res.HaltRounds, res.Crashes, res.Survivors, res.Agreement, res.Validity)

	// Same cluster, lossy links: every transmission attempt can be
	// dropped. The fault trace is reproducible from (seed, schedule)
	// alone — rerun and get the same drops, the same demotions, the same
	// decision.
	chaosCfg, err := synran.ParseChaosSpec("drop=0.05")
	if err != nil {
		fmt.Fprintln(os.Stderr, "livecluster:", err)
		os.Exit(1)
	}
	fmt.Printf("\nrestarting under chaos (%s), fault budget %d\n", chaosCfg.Spec(), n/4)
	res, err = synran.Run(synran.Spec{
		N: n, T: n - 1,
		Inputs:      synran.HalfHalfInputs(n),
		Adversary:   synran.AdversaryNone,
		Seed:        7,
		Chaos:       &chaosCfg,
		FaultBudget: n / 4,
		Metrics:     eng,
	})
	if err != nil {
		// Graceful degradation still carries the fault accounting.
		if res != nil {
			fmt.Printf("degraded: %v (faults %+v)\n", err, res.Faults)
		} else {
			fmt.Fprintln(os.Stderr, "livecluster:", err)
		}
		os.Exit(1)
	}
	fmt.Printf("survived the chaos: decided %d after %d rounds; agreement=%v validity=%v\n",
		res.DecidedValue(), res.HaltRounds, res.Agreement, res.Validity)
	fmt.Printf("fault accounting: dropped=%d demoted=%d\n", res.Faults.Dropped, res.Faults.Demoted)
	for _, note := range res.FaultNotes {
		fmt.Printf("  %s\n", note)
	}
}
