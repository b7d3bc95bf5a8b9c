// Command benchjson converts `go test -bench` text output (stdin) into
// the JSON benchmark artifact, and optionally gates allocs/op and B/op
// on a baseline — the tool behind `make bench-json` and the CI bench
// smoke job.
//
// Usage:
//
//	go test -bench=. -benchmem . | benchjson -out BENCH_sim.json
//	go test -bench=ValencyEstimate -benchtime=1x -benchmem . | \
//	    benchjson -out /tmp/cur.json -baseline BENCH_sim.json \
//	    -check BenchmarkValencyEstimate/arena -tolerance 0.20
//
// -check takes a comma-separated list; each entry is a benchmark name,
// optionally with its own tolerance as name=fraction (entries without
// one use -tolerance):
//
//	-check 'BenchmarkValencyEstimate/arena=0.20,BenchmarkMetricsOverhead/off=0.02'
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"synran/internal/benchfmt"
	"synran/internal/journal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		out       = flag.String("out", "BENCH_sim.json", "output JSON file (- for stdout)")
		baseline  = flag.String("baseline", "", "baseline JSON to compare against (optional)")
		check     = flag.String("check", "", "comma-separated benchmark names whose allocs/op and B/op are gated against the baseline (name or name=tolerance)")
		tolerance = flag.Float64("tolerance", 0.20, "default allowed fractional allocs/op and B/op regression (0.20 = +20%)")
	)
	flag.Parse()

	rep, err := benchfmt.Parse(os.Stdin)
	if err != nil {
		return err
	}
	if len(rep.Results) == 0 {
		return fmt.Errorf("no benchmark lines on stdin (pipe `go test -bench` output in)")
	}

	if *out == "-" {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			return err
		}
	} else {
		// Atomic, so an interrupted run never tears the artifact CI diffs
		// against its baseline.
		if err := journal.WriteFileAtomic(*out, rep.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(rep.Results), *out)
	}

	if *check != "" {
		if *baseline == "" {
			return fmt.Errorf("-check requires -baseline")
		}
		bf, err := os.Open(*baseline)
		if err != nil {
			return err
		}
		defer bf.Close()
		base, err := benchfmt.ReadJSON(bf)
		if err != nil {
			return err
		}
		for _, item := range strings.Split(*check, ",") {
			name, tol := strings.TrimSpace(item), *tolerance
			if eq := strings.IndexByte(name, '='); eq >= 0 {
				tol, err = strconv.ParseFloat(name[eq+1:], 64)
				if err != nil {
					return fmt.Errorf("bad -check entry %q: %w", item, err)
				}
				name = name[:eq]
			}
			if err := benchfmt.Check(base, rep, name, tol); err != nil {
				return err
			}
			cur, old := rep.Find(name), base.Find(name)
			fmt.Fprintf(os.Stderr, "benchjson: %s ok at %.0f allocs/op, %.0f B/op (baseline %.0f, %.0f; tolerance +%.0f%%)\n",
				name, cur.AllocsPerOp, cur.BytesPerOp, old.AllocsPerOp, old.BytesPerOp, tol*100)
		}
	}
	return nil
}
