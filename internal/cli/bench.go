package cli

import (
	"fmt"
	"io"
	"strings"

	"synran/internal/experiments"
	"synran/internal/metrics"
	"synran/internal/trials"
)

// BenchOptions configures Bench (cmd/synran-bench's core).
type BenchOptions struct {
	Quick    bool
	Seed     uint64
	Only     string // comma-separated experiment ids, empty = all
	CSV      bool
	Markdown bool
	// Scenario / ScenarioDir switch the bench into corpus mode: instead
	// of the E1–E19 grid, the selected .scenario entries run as one
	// experiments.Scenarios table, with a checkable claim per entry that
	// carries expectations.
	Scenario    string
	ScenarioDir string
	// Workers bounds the trial worker pool (0 = all cores). Tables are
	// byte-identical at every worker count.
	Workers int
	// Metrics, when non-nil, collects instrument emissions from every
	// experiment execution (see experiments.Config.Metrics).
	Metrics *metrics.Engine
	// Durable configures checkpointing and resume for the experiments'
	// trial batches (see experiments.Config.Durable).
	Durable trials.Durability
}

// Bench runs the selected experiments, writing tables to out and
// progress lines to errw. It returns an error listing failed claims.
func Bench(opts BenchOptions, out, errw io.Writer) error {
	cfg := experiments.Config{Quick: opts.Quick, Seed: opts.Seed, Workers: opts.Workers, Metrics: opts.Metrics, Durable: opts.Durable}
	if opts.Scenario != "" || opts.ScenarioDir != "" {
		return benchScenarios(opts, cfg, out, errw)
	}
	want := map[string]bool{}
	if opts.Only != "" {
		for _, id := range strings.Split(opts.Only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	ran := 0
	var failures []string
	for _, ex := range experiments.All() {
		if len(want) > 0 && !want[ex.ID] {
			continue
		}
		ran++
		fmt.Fprintf(errw, "running %s: %s ...\n", ex.ID, ex.Desc)
		res, err := ex.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", ex.ID, err)
		}
		switch {
		case opts.CSV:
			if err := res.Table.RenderCSV(out); err != nil {
				return err
			}
			fmt.Fprintln(out)
		case opts.Markdown:
			if err := res.Table.RenderMarkdown(out); err != nil {
				return err
			}
		default:
			if err := res.Table.Render(out); err != nil {
				return err
			}
		}
		for _, c := range res.Failed() {
			failures = append(failures, fmt.Sprintf("%s: %s (%s)", ex.ID, c.Name, c.Got))
		}
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matched -only=%q", opts.Only)
	}
	if len(failures) > 0 {
		return fmt.Errorf("claims failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Fprintln(errw, "all claims hold")
	return nil
}

// benchScenarios is the corpus mode: the scenario entries become one
// table (experiments.Scenarios), rendered with the same format switches
// as the experiment grid.
func benchScenarios(opts BenchOptions, cfg experiments.Config, out, errw io.Writer) error {
	entries, err := loadScenarioEntries(opts.Scenario, opts.ScenarioDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(errw, "running %d scenario entries ...\n", len(entries))
	res, err := experiments.Scenarios(entries, cfg)
	if err != nil {
		return err
	}
	switch {
	case opts.CSV:
		if err := res.Table.RenderCSV(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	case opts.Markdown:
		if err := res.Table.RenderMarkdown(out); err != nil {
			return err
		}
	default:
		if err := res.Table.Render(out); err != nil {
			return err
		}
	}
	var failures []string
	for _, c := range res.Failed() {
		failures = append(failures, fmt.Sprintf("%s: %s (%s)", res.ID, c.Name, c.Got))
	}
	if len(failures) > 0 {
		return fmt.Errorf("claims failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Fprintln(errw, "all claims hold")
	return nil
}
