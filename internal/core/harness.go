package core

import (
	"fmt"

	"synran/internal/metrics"
	"synran/internal/sim"
)

// RunSpec configures one SynRan execution end to end.
type RunSpec struct {
	N         int
	T         int
	Inputs    []int
	Opts      Options
	Seed      uint64 // seeds both process coins and the adversary stream
	Adversary sim.Adversary
	MaxRounds int
	Observer  sim.Observer
	// Metrics, when non-nil, receives the execution's instrument
	// emissions, sharded by MetricsShard (the trial worker's id).
	Metrics      *metrics.Engine
	MetricsShard int
	// Engine picks the lock-step core: "" or sim.EngineSoA for the
	// default (the columnar core, unless Opts.LeaderCoin or an injected
	// coin rules the kernel out), sim.EngineObject to pin the
	// per-process object core.
	Engine string
}

// Run executes SynRan once under the given adversary and returns the
// execution result. The execution starts from the kernel NewKernel
// builds, so on the columnar core it holds no Proc objects, unless the
// options rule the kernel out.
func Run(spec RunSpec) (*sim.Result, error) {
	if spec.Adversary == nil {
		return nil, fmt.Errorf("core: RunSpec.Adversary is nil")
	}
	cfg := sim.Config{
		N:            spec.N,
		T:            spec.T,
		MaxRounds:    spec.MaxRounds,
		Observer:     spec.Observer,
		Metrics:      spec.Metrics,
		MetricsShard: spec.MetricsShard,
		Engine:       spec.Engine,
	}
	exec, err := newExecution(cfg, spec.Inputs, spec.Seed, spec.Opts, spec.Seed^0x5eed5eed5eed5eed)
	if err != nil {
		return nil, err
	}
	return exec.Run(spec.Adversary)
}

// newExecution builds a SynRan execution of the vector (cfg.N, inputs,
// seed, opts) with adversary seed advSeed: from NewKernel's kernel when
// opts allow one, from NewProcs' vector otherwise.
func newExecution(cfg sim.Config, inputs []int, seed uint64, opts Options, advSeed uint64) (*sim.Execution, error) {
	k, err := NewKernel(cfg.N, inputs, seed, opts)
	if err != nil {
		return nil, err
	}
	if k != nil {
		return sim.NewKernelExecution(cfg, k, inputs, advSeed)
	}
	procs, err := NewProcs(cfg.N, inputs, seed, opts)
	if err != nil {
		return nil, err
	}
	return sim.NewExecution(cfg, procs, inputs, advSeed)
}
