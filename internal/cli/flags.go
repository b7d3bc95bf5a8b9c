package cli

import (
	"flag"
	"fmt"
	"io"
	"time"

	"synran/internal/metrics"
	"synran/internal/sim"
	"synran/internal/trials"
)

// CommonFlags unifies the flags every command in this repository
// shares, so -seed, -workers, and -quick carry the same name, usage
// string, and validation in consensus-sim, synran-bench, lowerbound,
// and asyncsim.
//
// Defaults come from the struct's values at Register time: each command
// fills in its canonical defaults first (consensus-sim and asyncsim
// seed 1, synran-bench seed 42, lowerbound seed 7) and then registers.
type CommonFlags struct {
	// Seed drives all randomness; every command's output is reproducible
	// at a fixed seed.
	Seed uint64
	// Workers bounds the trial/rollout worker pool. 0 selects all cores;
	// results are identical at every worker count (the repository's
	// worker-count invariance contract).
	Workers int
	// Quick selects reduced sizes and trial counts.
	Quick bool
	// Engine selects the lock-step engine core: "" or "soa" for the
	// default (the columnar structure-of-arrays core wherever the
	// protocol has a tally kernel, the object core otherwise), "object"
	// to pin the object-per-process reference core (behaviorally
	// identical; see internal/sim).
	Engine string
	// Deadline bounds the command's total wall-clock time. 0 disables the
	// guard; otherwise StartWatchdog makes the command exit with
	// ExitCodeDeadline once the budget is spent, marking whatever was
	// printed so far as a partial report.
	Deadline time.Duration
	// Metrics prints the run's deterministic metrics report (indented
	// JSON) after the regular output. Off by default: no engine is
	// allocated and the executions pay no instrumentation cost.
	Metrics bool
	// MetricsOut writes the same report to this file instead of (or in
	// addition to) stdout; a non-empty value enables collection on its
	// own.
	MetricsOut string
	// Scenario runs the command from a declarative scenario file instead
	// of the per-binary flags (see internal/scenario and the DESIGN.md
	// "Scenario API" section). The flag surface is a façade over the same
	// Scenario struct, so a flag-built run and its Format-ed file are the
	// same execution.
	Scenario string
	// ScenarioDir runs every *.scenario file in a directory, in name
	// order — the checked-in corpus under testdata/corpus is the primary
	// consumer.
	ScenarioDir string
	// Checkpoint is the durability root: each trial batch journals its
	// completed shards under this directory, so a killed run can be
	// re-run with -resume instead of recomputed (see internal/journal and
	// trials.DurableWorker). Empty disables checkpointing.
	Checkpoint string
	// Resume permits loading shards from an existing -checkpoint journal.
	// Without it a non-empty journal directory is an error, so two
	// different runs can never silently mix shards.
	Resume bool
	// RetryBudget is the total number of per-shard retries a command's
	// trial batches may consume before failures become terminal (0 =
	// fail on first error, the historical behavior).
	RetryBudget int
	// Hedge enables deterministic straggler hedging: idle trial workers
	// re-dispatch the slowest in-flight shard; first completion wins and
	// the duplicate is byte-identical by construction.
	Hedge bool

	// checkpointer tracks the journals of in-flight durable batches so
	// the -deadline watchdog can flush a final checkpoint before exiting.
	checkpointer trials.Checkpointer
}

// Flag selects which of the shared flags a command registers.
type Flag uint

const (
	// FlagSeed registers -seed.
	FlagSeed Flag = 1 << iota
	// FlagWorkers registers -workers.
	FlagWorkers
	// FlagQuick registers -quick.
	FlagQuick
	// FlagEngine registers -engine.
	FlagEngine
	// FlagDeadline registers -deadline.
	FlagDeadline
	// FlagMetrics registers -metrics and -metrics-out.
	FlagMetrics
	// FlagScenario registers -scenario and -scenario-dir.
	FlagScenario
	// FlagCheckpoint registers -checkpoint, -resume, -retrybudget, and
	// -hedge.
	FlagCheckpoint
)

// Register installs the selected flags on fs, using the struct's
// current values as defaults.
func (c *CommonFlags) Register(fs *flag.FlagSet, mask Flag) {
	if mask&FlagSeed != 0 {
		fs.Uint64Var(&c.Seed, "seed", c.Seed, "random seed (output is reproducible at a fixed seed)")
	}
	if mask&FlagWorkers != 0 {
		fs.IntVar(&c.Workers, "workers", c.Workers, "worker pool size (0 = all cores; results are identical at any count)")
	}
	if mask&FlagQuick != 0 {
		fs.BoolVar(&c.Quick, "quick", c.Quick, "reduced sizes and trial counts")
	}
	if mask&FlagEngine != 0 {
		fs.StringVar(&c.Engine, "engine", c.Engine, `lock-step engine core: "soa" (the default: columnar where the protocol has a tally kernel, object otherwise) or "object" (pin the object reference core); results are identical`)
	}
	if mask&FlagDeadline != 0 {
		fs.DurationVar(&c.Deadline, "deadline", c.Deadline, "wall-clock budget for the whole command (0 = unlimited; exceeded = exit 3 with a partial report)")
	}
	if mask&FlagMetrics != 0 {
		fs.BoolVar(&c.Metrics, "metrics", c.Metrics, "print a deterministic metrics report (JSON) after the output")
		fs.StringVar(&c.MetricsOut, "metrics-out", c.MetricsOut, "write the metrics report to this file (implies collection)")
	}
	if mask&FlagScenario != 0 {
		fs.StringVar(&c.Scenario, "scenario", c.Scenario, "run this declarative .scenario file instead of the per-binary flags")
		fs.StringVar(&c.ScenarioDir, "scenario-dir", c.ScenarioDir, "run every *.scenario file in this directory, in name order")
	}
	if mask&FlagCheckpoint != 0 {
		fs.StringVar(&c.Checkpoint, "checkpoint", c.Checkpoint, "journal completed trial shards under this directory (crash-safe; pair with -resume)")
		fs.BoolVar(&c.Resume, "resume", c.Resume, "load completed shards from the -checkpoint journal instead of recomputing them")
		fs.IntVar(&c.RetryBudget, "retrybudget", c.RetryBudget, "total retries failing trial shards may consume, with exponential backoff (0 = fail fast)")
		fs.BoolVar(&c.Hedge, "hedge", c.Hedge, "re-dispatch the slowest in-flight trial shard to idle workers (first completion wins)")
	}
}

// Validate checks the parsed values, returning the uniform error
// message commands print before exiting.
func (c *CommonFlags) Validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 selects all cores), got %d", c.Workers)
	}
	if c.Deadline < 0 {
		return fmt.Errorf("-deadline must be >= 0 (0 disables the guard), got %v", c.Deadline)
	}
	if err := sim.ValidEngine(c.Engine); err != nil {
		return fmt.Errorf("-engine: %v", err)
	}
	if c.Scenario != "" && c.ScenarioDir != "" {
		return fmt.Errorf("-scenario and -scenario-dir are mutually exclusive")
	}
	if c.Resume && c.Checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint (there is no journal to resume from)")
	}
	if c.RetryBudget < 0 {
		return fmt.Errorf("-retrybudget must be >= 0 (0 fails fast), got %d", c.RetryBudget)
	}
	return nil
}

// Durable assembles the trials.Durability configuration the checkpoint
// flag group selected. The zero flag values produce a disabled
// Durability, under which trials.DurableWorker is exactly RunWorker —
// so call sites thread it through unconditionally.
func (c *CommonFlags) Durable() trials.Durability {
	return trials.Durability{
		Dir:          c.Checkpoint,
		Resume:       c.Resume,
		Retry:        trials.RetryPolicy{Budget: c.RetryBudget},
		Hedge:        c.Hedge,
		Checkpointer: &c.checkpointer,
	}
}

// FlushCheckpoints seals every in-flight trial journal (fsync + atomic
// rename). The -deadline watchdog calls it before exiting so a
// wall-clock abort is resumable up to its last completed shard.
func (c *CommonFlags) FlushCheckpoints() {
	_ = c.checkpointer.Flush()
}

// MetricsEnabled reports whether either metrics flag asked for
// collection.
func (c *CommonFlags) MetricsEnabled() bool {
	return c.Metrics || c.MetricsOut != ""
}

// NewMetricsEngine builds the instrument set the command threads
// through its executions, sized for the resolved worker count — or nil
// when metrics are disabled, which keeps every emission site on its
// zero-cost nil path.
func (c *CommonFlags) NewMetricsEngine() *metrics.Engine {
	if !c.MetricsEnabled() {
		return nil
	}
	return metrics.NewEngine(metrics.New(trials.DefaultWorkers(c.Workers)))
}

// WriteMetrics exports m's deterministic report (volatile instruments
// excluded, so the JSON is byte-identical at every worker count): to
// the -metrics-out file when set, and to w when -metrics. A nil engine
// is a no-op, so commands call it unconditionally after the run.
func (c *CommonFlags) WriteMetrics(m *metrics.Engine, w io.Writer) error {
	if m == nil {
		return nil
	}
	rep := m.Registry().Report(false)
	if c.MetricsOut != "" {
		// Atomic so a crash (or the -deadline watchdog) mid-write can
		// never leave a torn report behind a path a later run trusts.
		if err := AtomicWriteFile(c.MetricsOut, rep.WriteJSON); err != nil {
			return err
		}
	}
	if c.Metrics {
		if err := rep.WriteJSON(w); err != nil {
			return err
		}
	}
	return nil
}
